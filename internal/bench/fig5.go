package bench

import (
	"pardis/internal/apps/pipeline"
	"pardis/internal/core"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/vtime"
)

// Fig5Point is one processor count of Figure 5: the metaapplication's
// overall time and the component times (seconds).
type Fig5Point struct {
	Procs     int
	Overall   float64
	Diffusion float64 // diffusion component alone (compute + local viz)
	Gradient  float64 // gradient component alone (compute + its viz sends)
}

// Fig5Procs is the paper's sweep, P = 1..8 SP/2 nodes (diffusion and
// gradient processor counts move together).
var Fig5Procs = []int{1, 2, 3, 4, 5, 6, 7, 8}

// runFig5 runs the metaapplication of internal/apps/pipeline that app
// selects with p diffusion threads and p gradient threads (one for the
// driver) and returns the diffusion client's elapsed time in seconds. With
// commThreads the client and the gradient server send through
// communication threads.
func runFig5(p int, app pipeline.Params, commThreads bool) float64 {
	w := newWorld()
	w.connect("powerchallenge", "sp2", "ethernet")
	w.connect("sp2", "indy", "ethernet")

	// Visualizer for the diffusion unit: a sequential process on the same
	// SGI PC (loopback); for the gradient: on the SGI Indy over Ethernet.
	vizDiffIOR := w.spmdServer("viz-diff", "powerchallenge", 1, func(adapter *poa.POA) (core.IOR, error) {
		return pipeline.RegisterVisualizer(adapter, "viz-diff", app, &pipeline.Visualizer{})
	})
	vizGradIOR := w.spmdServer("viz-grad", "indy", 1, func(adapter *poa.POA) (core.IOR, error) {
		return pipeline.RegisterVisualizer(adapter, "viz-grad", app, &pipeline.Visualizer{})
	})

	// The gradient server: SPMD on the SP/2, also a client of its
	// visualizer (same endpoint, shared through the router).
	gradIOR := vtime.NewChan(w.sim, "grad-ior")
	w.spawn("grad", "sp2", p, endpoint{async: commThreads}, func(th *rts.SimThread, adapter *poa.POA, orb *core.ORB) {
		vizRef := func() core.IOR { return peek[core.IOR](th, vizGradIOR) }
		publish := func(ior core.IOR) { th.Proc().Send(gradIOR, ior, 0) }
		check(pipeline.ServeGradient(th, adapter, orb, app, "gradient-1", vizRef, publish))
	})

	// The diffusion unit: a POOMA-style parallel client on the SGI PC, or
	// in its place the gradient component's driver.
	name, procs := "diffusion", p
	if app.Driver {
		name, procs = "driver", 1
	}
	var elapsed vtime.Time
	w.spawn(name, "powerchallenge", procs, endpoint{async: commThreads}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		// Both references before either bind: a bind is collective over
		// the client's threads, so when it starts moves the figures.
		vizRef, gradRef := peek[core.IOR](th, vizDiffIOR), peek[core.IOR](th, gradIOR)
		var start vtime.Time
		check(pipeline.Diffuse(th, orb, app, vizRef, gradRef,
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

// Figure5 regenerates the paper's Figure 5: the pipelined metaapplication's
// overall time against its components' standalone times, as the processor
// count of both parallel components grows.
func Figure5(procs []int) []Fig5Point {
	// The diffusion component alone: compute + its local visualizer. The
	// gradient component alone: its compute and its visualizer traffic,
	// called back to back by a driver that computes nothing.
	diffusion, gradient := pipeline.Params{SkipGradient: true}, pipeline.Params{Driver: true}
	var out []Fig5Point
	for _, p := range procs {
		out = append(out, Fig5Point{
			Procs:     p,
			Overall:   runFig5(p, pipeline.Params{}, false),
			Diffusion: runFig5(p, diffusion, false),
			Gradient:  runFig5(p, gradient, false),
		})
	}
	return out
}
