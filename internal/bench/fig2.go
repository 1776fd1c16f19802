package bench

import (
	"pardis/internal/apps/linsolve"
	"pardis/internal/apps/linsolveidl"
	"pardis/internal/core"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/vtime"
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

// runFig2 runs the §4.1 application of internal/apps/linsolve that app
// selects for problem size n and returns the client-perceived execution
// time in seconds. The client is two threads on HOST 1 (onyx); the direct
// server has HOST 1's four nodes and the iterative server HOST 2's
// (powerchallenge) ten, unless sameServer puts both on HOST 1, two nodes
// each.
func runFig2(n int, app linsolve.Params, sameServer bool) float64 {
	w := newWorld()
	w.connect("onyx", "powerchallenge", "atm")
	directProcs, iterHost, iterProcs := 4, "powerchallenge", 10
	if sameServer {
		directProcs, iterHost, iterProcs = 2, "onyx", 2
	}

	dIOR := w.spmdServer("direct", "onyx", directProcs, func(adapter *poa.POA) (core.IOR, error) {
		return linsolveidl.RegisterDirectSPMD(adapter, "direct-1", linsolve.Direct{})
	})
	iIOR := w.spmdServer("iterative", iterHost, iterProcs, func(adapter *poa.POA) (core.IOR, error) {
		return linsolveidl.RegisterIterativeSPMD(adapter, "itrt-1", linsolve.Iterative{})
	})

	var elapsed vtime.Time
	w.spawn("client", "onyx", 2, endpoint{}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		var start vtime.Time
		must(linsolve.Client(th, orb, app, n, peek[core.IOR](th, dIOR), peek[core.IOR](th, iIOR),
			func() { start = th.Proc().Now() },
			func() {
				if th.Rank() == 0 {
					elapsed = th.Proc().Now() - start
				}
			}))
	})
	w.run()
	return elapsed.Seconds()
}

// Figure2 regenerates the paper's Figure 2 series for the given sizes.
//
// Modes:
//   - Direct: only the direct solve, HOST 1 (4 nodes) — component curve.
//   - Iterative: only the iterative solve, HOST 2 (10 nodes) — component.
//   - Distributed: direct on HOST 1, iterative on HOST 2, concurrent.
//   - SameServer: both servers share HOST 1's four nodes (two each).
func Figure2(sizes []int) []Fig2Point {
	var out []Fig2Point
	for _, n := range sizes {
		out = append(out, Fig2Point{
			N:           n,
			Direct:      runFig2(n, linsolve.Params{SkipIterative: true}, false),
			Iterative:   runFig2(n, linsolve.Params{SkipDirect: true}, false),
			Distributed: runFig2(n, linsolve.Params{}, false),
			SameServer:  runFig2(n, linsolve.Params{}, true),
		})
	}
	return out
}
