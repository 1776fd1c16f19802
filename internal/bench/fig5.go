package bench

import (
	"fmt"

	"pardis/internal/apps"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
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

func pipelineIfaces(oneway bool) (viz, gradOps *core.InterfaceDef) {
	field := typecode.DSequenceOf(typecode.TCDouble, fig5Grid*fig5Grid, "BLOCK", "BLOCK")
	viz = &core.InterfaceDef{
		Name: "visualizer",
		Ops: []core.Operation{{
			Name:   "show",
			Oneway: oneway,
			Params: []core.Param{core.NewParam("myfield", core.In, field)},
		}},
	}
	gradOps = &core.InterfaceDef{
		Name: "field_operations",
		Ops: []core.Operation{{
			Name:   "gradient",
			Oneway: oneway,
			Params: []core.Param{core.NewParam("myfield", core.In, field)},
		}},
	}
	return viz, gradOps
}

// vizServant consumes frames at a fixed per-frame cost.
type vizServant struct{}

func (vizServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "show" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	ctx.Thread.Compute(apps.VizWork)
	return nil, nil, nil
}

// gradServant charges the gradient cost and pipelines the result to its
// own visualizer — the server-as-client role of §4.3.
type gradServant struct {
	vizIORCh *vtime.Chan
	vizIface *core.InterfaceDef
	orb      *core.ORB
	viz      *core.Binding
}

// visualizer binds the gradient's visualizer on first use; every thread
// of the server calls it together.
func (g *gradServant) visualizer(th rts.Thread) *core.Binding {
	if g.viz == nil {
		g.viz = mustBind(g.orb, peek[core.IOR](th, g.vizIORCh), g.vizIface)
	}
	return g.viz
}

func (g *gradServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "gradient" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	th := ctx.Thread
	viz := g.visualizer(th)
	in0 := in[0].(dseq.Distributed)
	th.Compute(apps.PerThread(apps.GradientWork(fig5Grid*fig5Grid), th.Size()))
	out := dseq.NewFromLayout[float64](th, in0.DLayout(), dseq.Float64Codec{})
	if _, err := viz.InvokeNB("show", []any{out}); err != nil {
		return nil, nil, err
	}
	return nil, nil, nil
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

	vizIface, gradIface := pipelineIfaces(cfg.oneway)

	// Visualizer for the diffusion unit: a sequential process on the same
	// SGI PC (loopback); for the gradient: on the SGI Indy over Ethernet.
	vizDiffIOR := w.spmdServer("viz-diff", "powerchallenge", 1, func(adapter *poa.POA) (core.IOR, error) {
		return adapter.RegisterSPMD("viz-diff", vizIface, vizServant{})
	})
	vizGradIOR := w.spmdServer("viz-grad", "indy", 1, func(adapter *poa.POA) (core.IOR, error) {
		return adapter.RegisterSPMD("viz-grad", vizIface, vizServant{})
	})

	// The gradient server: SPMD on the SP/2, also a client of its
	// visualizer (same endpoint, shared through the router).
	gradIOR := vtime.NewChan(w.sim, "grad-ior")
	w.spawn("grad", "sp2", p, endpoint{async: cfg.commThreads}, func(th *rts.SimThread, adapter *poa.POA, orb *core.ORB) {
		impl := &gradServant{vizIORCh: vizGradIOR, vizIface: vizIface, orb: orb}
		ior, err := adapter.RegisterSPMD("gradient-1", gradIface, impl)
		if err != nil {
			panic(err)
		}
		if th.Rank() == 0 {
			th.Proc().Send(gradIOR, ior, 0)
		}
		adapter.ImplIsReady()
		// Deactivation is collective, so every thread leaves together;
		// the gradient component then retires its own visualizer.
		viz := impl.visualizer(th)
		if th.Rank() == 0 {
			if err := viz.Shutdown("done"); err != nil {
				panic(err)
			}
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
		viz, grad := mustBind(orb, vizRef, vizIface), mustBind(orb, gradRef, gradIface)
		field := dseq.New[float64](th, fig5Grid*fig5Grid, dist.BlockTemplate(), dseq.Float64Codec{})

		th.Barrier()
		start := th.Proc().Now()
		var pending []*future.Cell
		send := func(b *core.Binding, op string) {
			if cfg.driver {
				if _, err := b.Invoke(op, []any{field}); err != nil {
					panic(err)
				}
				return
			}
			c, err := b.InvokeNB(op, []any{field})
			if err != nil {
				panic(err)
			}
			pending = append(pending, c)
		}
		for step := 1; step <= fig5Steps; step++ {
			if !cfg.driver {
				th.Compute(apps.PerThread(apps.DiffusionStepWork(fig5Grid*fig5Grid), th.Size()))
				send(viz, "show")
			}
			if !cfg.skipGradient && step%fig5Every == 0 {
				send(grad, "gradient")
			}
		}
		// A oneway call's cell is resolved when it is sent.
		for _, c := range pending {
			if err := c.Wait(); err != nil {
				panic(err)
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			elapsed = th.Proc().Now() - start
			for _, b := range []*core.Binding{grad, viz} {
				if err := b.Shutdown("done"); err != nil {
					panic(err)
				}
			}
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
