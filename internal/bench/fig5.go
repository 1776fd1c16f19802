package bench

import (
	"pardis/internal/apps"
	"pardis/internal/apps/pipeline"
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

// fig5Topology is Figure 5's deployment at p threads per parallel
// component: the POOMA diffusion client on the SGI Power Challenge beside
// its visualizer, a sequential process (loopback); the PSTL gradient server
// on the SP/2, and its visualizer on the SGI Indy over Ethernet.
func fig5Topology(p int) pipeline.Topology {
	return pipeline.Topology{
		Gradient:  apps.Program{Host: "sp2", Threads: p},
		Diffusion: apps.Program{Host: "powerchallenge", Threads: p},
		VizGrad:   "indy",
	}
}

// runFig5 runs the metaapplication of internal/apps/pipeline that app
// selects on fig5Topology(p) and returns the diffusion client's elapsed
// time in seconds. With commThreads the client and the gradient server
// send through communication threads.
func runFig5(p int, app pipeline.Params, commThreads bool) float64 {
	sim := apps.NewSim()
	sim.Connect("powerchallenge", "sp2", "ethernet")
	sim.Connect("sp2", "indy", "ethernet")
	var l apps.Launcher = sim
	if commThreads {
		l = withCommThreads{sim}
	}
	var span apps.Span
	_, _, err := pipeline.Deploy(l, fig5Topology(p), app, &span)
	check(err)
	return span.Seconds()
}

// withCommThreads starts every program but the visualizers on
// communication-thread endpoints.
type withCommThreads struct{ *apps.Sim }

func (w withCommThreads) Start(name string, at apps.Program, body apps.Body) apps.Ref {
	return w.Spawn(name, at, apps.Endpoint{Async: name != pipeline.VizDiffProgram && name != pipeline.VizGradProgram}, body)
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
