package bench

import (
	"pardis/internal/apps"
	"pardis/internal/apps/dnadb"
)

// Fig4Point is one server size of Figure 4: client-perceived execution
// time (seconds) of the same search-plus-queries run under the two
// placements of the five single list-server objects, and their difference.
type Fig4Point struct {
	Procs       int
	Centralized float64
	Distributed float64
	Difference  float64
}

// Fig4Procs is the paper's processor sweep.
var Fig4Procs = []int{1, 2, 3, 4, 5, 6, 7, 8}

// runFig4 runs the §4.2 application of internal/apps/dnadb with the list
// placement app: the database server on p threads of HOST 2
// (powerchallenge), its one-thread client on HOST 1 (onyx). It returns the
// client's execution time in seconds.
func runFig4(p int, app dnadb.Params) float64 {
	sim := apps.NewSim()
	sim.Connect("onyx", "powerchallenge", "atm")
	var span apps.Span
	_, _, err := dnadb.Deploy(sim, dnadb.Topology{Server: apps.Program{Host: "powerchallenge", Threads: p}, Client: "onyx"}, app, nil, &span)
	check(err)
	return span.Seconds()
}

// Figure4 regenerates the paper's Figure 4: the same run under the
// centralized placement (all five list objects on thread 0 — "what would
// happen if only one computing thread of the SPMD object were visible to
// the ORB") and the distributed placement (round-robin *by count, not by
// weight*, reproducing the paper's remark about the 2 -> 3 processor dip).
func Figure4(procs []int) []Fig4Point {
	var out []Fig4Point
	for _, p := range procs {
		pt := Fig4Point{Procs: p}
		pt.Centralized = runFig4(p, dnadb.Params{Centralized: true})
		pt.Distributed = runFig4(p, dnadb.Params{})
		pt.Difference = pt.Centralized - pt.Distributed
		out = append(out, pt)
	}
	return out
}
