package bench

import (
	"pardis/examples/pipeline/vizgen"
	"pardis/internal/apps"
	"pardis/internal/bench/benchidl"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
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

// Fig5 parameters: the paper's 128x128 grid, 100 time-steps, gradient
// requested every 5th step.
const (
	fig5Grid  = 128
	fig5Steps = 100
	fig5Every = 5
)

// vizServant implements pipeline.idl's visualizer: it consumes frames at
// a fixed per-frame cost.
type vizServant struct{}

func (vizServant) Show(ctx *poa.Context, _ *dseq.DSeq[float64]) error {
	ctx.Thread.Compute(apps.VizWork)
	return nil
}

// gradServant implements pipeline.idl's field_operations: it charges the
// gradient cost and pipelines the result to its own visualizer — the
// server-as-client role of §4.3.
type gradServant struct {
	vizIORCh *vtime.Chan
	orb      *core.ORB
	oneway   bool
	show     nbStub
	viz      *core.Binding
}

// visualizer binds the gradient's visualizer on first use; every thread
// of the server calls it together.
func (g *gradServant) visualizer(th rts.Thread) *core.Binding {
	if g.viz == nil {
		g.show, g.viz = bindVisualizer(g.orb, peek[core.IOR](th, g.vizIORCh), g.oneway)
	}
	return g.viz
}

func (g *gradServant) Gradient(ctx *poa.Context, myfield *dseq.DSeq[float64]) error {
	th := ctx.Thread
	g.visualizer(th)
	th.Compute(apps.PerThread(apps.GradientWork(fig5Grid*fig5Grid), th.Size()))
	_, err := g.show(dseq.NewFromLayout[float64](th, myfield.DLayout(), dseq.Float64Codec{}))
	return err
}

// An nbStub issues one pipeline call through its generated non-blocking
// stub and returns what to wait on. The stubs are pipeline.idl's two-way
// ones (package vizgen) or, for the oneway ablation, those of benchidl's
// copies declared oneway, which send no reply: their wait returns at once.
type nbStub func(myfield *dseq.DSeq[float64]) (wait func() error, err error)

// bindVisualizer collectively binds the visualizer at ref.
func bindVisualizer(orb *core.ORB, ref core.IOR, oneway bool) (nbStub, *core.Binding) {
	if oneway {
		v := must(benchidl.SPMDBindVisualizer(orb, ref))
		return onewayStub(v.ShowNB), v.Binding()
	}
	v := must(vizgen.SPMDBindVisualizer(orb, ref))
	return twoWayStub(v.ShowNB), v.Binding()
}

// bindGradient collectively binds the gradient server at ref; blocking is
// its blocking stub.
func bindGradient(orb *core.ORB, ref core.IOR, oneway bool) (nb nbStub, blocking func(*dseq.DSeq[float64]) error, b *core.Binding) {
	if oneway {
		g := must(benchidl.SPMDBindFieldOperations(orb, ref))
		return onewayStub(g.GradientNB), g.Gradient, g.Binding()
	}
	g := must(vizgen.SPMDBindFieldOperations(orb, ref))
	return twoWayStub(g.GradientNB), g.Gradient, g.Binding()
}

func twoWayStub(stub func(*dseq.DSeq[float64]) (future.Done, error)) nbStub {
	return func(f *dseq.DSeq[float64]) (func() error, error) {
		done, err := stub(f)
		return done.Wait, err
	}
}

func onewayStub(stub func(*dseq.DSeq[float64]) error) nbStub {
	return func(f *dseq.DSeq[float64]) (func() error, error) {
		return func() error { return nil }, stub(f)
	}
}

// fig5Config selects which parts of the metaapplication run, and how; its
// zero value is the whole pipeline, Figure 5's overall curve.
type fig5Config struct {
	skipGradient bool // no gradient requests: the diffusion component alone
	oneway       bool // show and gradient are declared oneway: nobody waits for a reply
	commThreads  bool // the diffusion client and the gradient server send through communication threads
	// driver is the gradient component alone: in place of the diffusion
	// client, a one-thread driver that neither computes nor shows blocks
	// on each gradient request.
	driver bool
}

// runFig5 runs the pipeline with p diffusion threads and p gradient
// threads and returns the diffusion client's elapsed time in seconds.
func runFig5(p int, cfg fig5Config) float64 {
	w := newWorld()
	w.connect("powerchallenge", "sp2", "ethernet")
	w.connect("sp2", "indy", "ethernet")

	// The oneway ablation serves benchidl's tables through vizgen's
	// skeletons: the servant interfaces of the two copies are the same.
	vizIDL, gradIDL := vizgen.VisualizerIDL, vizgen.FieldOperationsIDL
	if cfg.oneway {
		vizIDL, gradIDL = benchidl.VisualizerIDL, benchidl.FieldOperationsIDL
	}

	// Visualizer for the diffusion unit: a sequential process on the same
	// SGI PC (loopback); for the gradient: on the SGI Indy over Ethernet.
	vizDiffIOR := w.spmdServer("viz-diff", "powerchallenge", 1, func(adapter *poa.POA) (core.IOR, error) {
		return adapter.RegisterSPMD("viz-diff", vizIDL(), vizgen.NewVisualizerSkeleton(vizServant{}))
	})
	vizGradIOR := w.spmdServer("viz-grad", "indy", 1, func(adapter *poa.POA) (core.IOR, error) {
		return adapter.RegisterSPMD("viz-grad", vizIDL(), vizgen.NewVisualizerSkeleton(vizServant{}))
	})

	// The gradient server: SPMD on the SP/2, also a client of its
	// visualizer (same endpoint, shared through the router).
	gradIOR := vtime.NewChan(w.sim, "grad-ior")
	w.spawn("grad", "sp2", p, endpoint{async: cfg.commThreads}, func(th *rts.SimThread, adapter *poa.POA, orb *core.ORB) {
		impl := &gradServant{vizIORCh: vizGradIOR, orb: orb, oneway: cfg.oneway}
		ior := must(adapter.RegisterSPMD("gradient-1", gradIDL(), vizgen.NewFieldOperationsSkeleton(impl)))
		if th.Rank() == 0 {
			th.Proc().Send(gradIOR, ior, 0)
		}
		adapter.ImplIsReady()
		// Deactivation is collective, so every thread leaves together;
		// the gradient component then retires its own visualizer.
		viz := impl.visualizer(th)
		if th.Rank() == 0 {
			check(viz.Shutdown("done"))
		}
	})

	// The diffusion unit: a POOMA-style parallel client on the SGI PC, or
	// in its place the gradient component's driver.
	name, procs := "diffusion", p
	if cfg.driver {
		name, procs = "driver", 1
	}
	var elapsed vtime.Time
	w.spawn(name, "powerchallenge", procs, endpoint{async: cfg.commThreads}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		// Both references before either bind: a bind is collective over
		// the client's threads, so when it starts moves the figures.
		vizRef, gradRef := peek[core.IOR](th, vizDiffIOR), peek[core.IOR](th, gradIOR)
		show, viz := bindVisualizer(orb, vizRef, cfg.oneway)
		gradientNB, gradient, grad := bindGradient(orb, gradRef, cfg.oneway)
		field := dseq.New[float64](th, fig5Grid*fig5Grid, dist.BlockTemplate(), dseq.Float64Codec{})

		th.Barrier()
		start := th.Proc().Now()
		var pending []func() error
		for step := 1; step <= fig5Steps; step++ {
			if !cfg.driver {
				th.Compute(apps.PerThread(apps.DiffusionStepWork(fig5Grid*fig5Grid), th.Size()))
				pending = append(pending, must(show(field)))
			}
			switch {
			case cfg.skipGradient || step%fig5Every != 0:
			case cfg.driver:
				check(gradient(field))
			default:
				pending = append(pending, must(gradientNB(field)))
			}
		}
		for _, wait := range pending {
			check(wait())
		}
		th.Barrier()
		if th.Rank() == 0 {
			elapsed = th.Proc().Now() - start
			check(grad.Shutdown("done"))
			check(viz.Shutdown("done"))
		}
	})
	w.run()
	return elapsed.Seconds()
}

// Figure5 regenerates the paper's Figure 5: the pipelined metaapplication's
// overall time against its components' standalone times, as the processor
// count of both parallel components grows.
func Figure5(procs []int) []Fig5Point {
	var out []Fig5Point
	for _, p := range procs {
		out = append(out, Fig5Point{
			Procs:   p,
			Overall: runFig5(p, fig5Config{}),
			// Diffusion component alone: compute + its local visualizer.
			Diffusion: runFig5(p, fig5Config{skipGradient: true}),
			// Gradient component alone: its compute and its visualizer
			// traffic, called back to back by a driver that computes nothing.
			Gradient: runFig5(p, fig5Config{driver: true}),
		})
	}
	return out
}
