package bench

import (
	"pardis/internal/apps"
	"pardis/internal/apps/linsolve"
)

// Fig2Point is one problem size of Figure 2: execution times (seconds) of
// the two solver components and of the metaapplication in distributed and
// single-server mode.
type Fig2Point struct {
	N           int
	Direct      float64 // direct method alone on HOST 1
	Iterative   float64 // iterative method alone on HOST 2
	Distributed float64 // different servers, concurrent invocation
	SameServer  float64 // both servers sharing HOST 1
}

// Fig2Sizes are the paper's problem sizes (200..1200).
var Fig2Sizes = []int{200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200}

// Figure 2's deployments. The client is two threads on HOST 1 (onyx),
// beside the object repository; the direct server has HOST 1's four nodes
// and the iterative server HOST 2's (powerchallenge) ten, unless both
// share HOST 1, two nodes each.
var (
	fig2Distributed = linsolve.Topology{
		Direct:    apps.Program{Host: "onyx", Threads: 4},
		Iterative: apps.Program{Host: "powerchallenge", Threads: 10},
		Client:    apps.Program{Host: "onyx", Threads: 2},
	}
	fig2SameServer = linsolve.Topology{
		Direct:    apps.Program{Host: "onyx", Threads: 2},
		Iterative: apps.Program{Host: "onyx", Threads: 2},
		Client:    apps.Program{Host: "onyx", Threads: 2},
	}
)

// runFig2 runs the §4.1 application that app selects for problem size n on
// t and returns the client-perceived execution time in seconds.
func runFig2(n int, app linsolve.Params, t linsolve.Topology) float64 {
	sim := apps.NewSim()
	sim.Connect("onyx", "powerchallenge", "atm")
	var span apps.Span
	must(linsolve.Deploy(sim, t, app, n, &span))
	return span.Seconds()
}

// Figure2 regenerates the paper's Figure 2 series for the given sizes: the
// component curves run one solve each on fig2Distributed.
func Figure2(sizes []int) []Fig2Point {
	var out []Fig2Point
	for _, n := range sizes {
		out = append(out, Fig2Point{
			N:           n,
			Direct:      runFig2(n, linsolve.Params{SkipIterative: true}, fig2Distributed),
			Iterative:   runFig2(n, linsolve.Params{SkipDirect: true}, fig2Distributed),
			Distributed: runFig2(n, linsolve.Params{}, fig2Distributed),
			SameServer:  runFig2(n, linsolve.Params{}, fig2SameServer),
		})
	}
	return out
}
