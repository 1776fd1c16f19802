package bench

import (
	"fmt"

	"pardis/internal/apps"
	"pardis/internal/apps/linsolve"
	"pardis/internal/apps/pipeline"
	"pardis/internal/bench/benchidl"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// AblationPoint is one configuration's modeled time in seconds.
type AblationPoint struct {
	Label   string
	Seconds float64
}

// scalerTransferTime builds a server of serverProcs threads holding an SPMD
// mover and a client of clientProcs threads, and returns the client's
// invocation time for n doubles each way.
func scalerTransferTime(n, clientProcs, serverProcs int, funnel bool) float64 {
	sim := apps.NewSim()
	sim.Connect("onyx", "powerchallenge", "atm")
	server := sim.Start("mover", apps.Program{Host: "powerchallenge", Threads: serverProcs}, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
		return benchidl.RegisterMoverSPMD(adapter, "mover-1", moverServant{})
	}))

	var span apps.Span
	sim.Start("client", apps.Program{Host: "onyx", Threads: clientProcs}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
		mover := must(benchidl.SPMDBindMover(orb, must(server(th))[0]))
		x := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		th.Barrier()
		span.Start(th)
		if funnel {
			// Funnel: gather on client thread 0, ship as one stream,
			// receive concentrated, scatter back — the extra hops the
			// direct schedule avoids.
			full := x.GatherTo(0)
			fx := dseq.Scatter(th, 0, full, n, dist.CollapsedOn(0), dseq.Float64Codec{})
			check(mover.Binding().SetOutDist("move", 1, dist.CollapsedOn(0)))
			must(mover.Move(fx)).RedistributeTo(dist.BlockTemplate().Layout(n, th.Size()))
		} else {
			must(mover.Move(x))
		}
		th.Barrier()
		span.Stop(th)
		if th.Rank() == 0 {
			return mover.Binding().Shutdown("done")
		}
		return nil
	})
	check(sim.Wait())
	return span.Seconds()
}

// moverServant implements bench.idl's mover: y is a fresh sequence laid
// out as x.
type moverServant struct{}

func (moverServant) Move(ctx *poa.Context, x *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	return dseq.NewFromLayout[float64](ctx.Thread, x.DLayout(), dseq.Float64Codec{}), nil
}

// sinkServant implements bench.idl's sink: it drops what it is sent.
type sinkServant struct{}

func (sinkServant) Put(*poa.Context, *dseq.DSeq[float64]) error { return nil }

// AblationParallelTransfer compares the ORB's direct thread-to-thread
// argument transfer against the funneled baseline (gather to client thread
// 0, one stream, scatter on the server) — the optimization of [KG97].
func AblationParallelTransfer(n int) []AblationPoint {
	return []AblationPoint{
		{"direct-parallel", scalerTransferTime(n, 4, 4, false)},
		{"funneled", scalerTransferTime(n, 4, 4, true)},
	}
}

// AblationLocalShortcut compares invoking a co-located object against the
// same invocation across the ATM link — the paper's "invocation on a local
// object becomes a direct call" effect, in modeled time.
func AblationLocalShortcut(n int) []AblationPoint {
	run := func(colocated bool) float64 {
		sim := apps.NewSim()
		sim.Connect("onyx", "powerchallenge", "atm")
		clientHost := "onyx"
		if colocated {
			clientHost = "powerchallenge"
		}
		server := sim.Start("sink", apps.Program{Host: "powerchallenge", Threads: 2}, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
			return benchidl.RegisterSinkSPMD(adapter, "sink-1", sinkServant{})
		}))
		var span apps.Span
		sim.Start("client", apps.Program{Host: clientHost, Threads: 2}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
			sink := must(benchidl.SPMDBindSink(orb, must(server(th))[0]))
			x := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
			th.Barrier()
			span.Start(th)
			check(sink.Put(x))
			th.Barrier()
			span.Stop(th)
			if th.Rank() == 0 {
				return sink.Binding().Shutdown("done")
			}
			return nil
		})
		check(sim.Wait())
		return span.Seconds()
	}
	return []AblationPoint{
		{"co-located", run(true)},
		{"remote-atm", run(false)},
	}
}

// AblationNonBlocking compares the §4.1 interaction run with non-blocking
// overlap against fully blocking sequential invocations.
func AblationNonBlocking(n int) []AblationPoint {
	return []AblationPoint{
		{"non-blocking-overlap", runFig2(n, linsolve.Params{}, fig2Distributed)},
		{"blocking-sequential", runFig2(n, linsolve.Params{Blocking: true}, fig2Distributed)},
	}
}

// AblationOneway compares the Figure 5 pipeline's non-blocking (but
// two-way) show/gradient traffic against a protocol-level oneway variant —
// the paper's §4.3 observation that its invocations "were not oneway".
func AblationOneway(p int) []AblationPoint {
	return []AblationPoint{
		{fmt.Sprintf("non-blocking-p%d", p), runFig5(p, pipeline.Params{}, false)},
		{fmt.Sprintf("oneway-p%d", p), runFig5(p, pipeline.Params{Oneway: true}, false)},
	}
}

// AblationCommThreads implements the experiment the paper's §6 proposes as
// future work: "using communication threads (additional to the computing
// threads) as sending and receiving processes between parallel applications
// ... might alleviate such problems as pipeline congestion". It reruns the
// Figure 5 pipeline with the computing threads' sends delegated to
// dedicated communication processes, so a non-blocking invocation no longer
// occupies the sender for the frame's wire time.
func AblationCommThreads(p int) []AblationPoint {
	return []AblationPoint{
		{fmt.Sprintf("single-threaded-p%d", p), runFig5(p, pipeline.Params{}, false)},
		{fmt.Sprintf("comm-threads-p%d", p), runFig5(p, pipeline.Params{}, true)},
	}
}

// AblationRedistribution measures redistribution costs between templates on
// an 8-thread host, per element count.
func AblationRedistribution(n int) []AblationPoint {
	run := func(from, to dist.Template, label string) AblationPoint {
		sim := vtime.NewSim()
		var span apps.Span
		rts.NewSimGroup(sim, simnet.PaperTestbed().Host("powerchallenge"), 8).Spawn("redist", func(th rts.Thread) {
			s := dseq.New[float64](th, n, from, dseq.Float64Codec{})
			th.Barrier()
			span.Start(th)
			s.Redistribute(to)
			th.Barrier()
			span.Stop(th)
		})
		must(sim.Run())
		return AblationPoint{label, span.Seconds()}
	}
	return []AblationPoint{
		run(dist.BlockTemplate(), dist.BlockTemplate(), "block->block (no-op)"),
		run(dist.BlockTemplate(), dist.CyclicTemplate(), "block->cyclic"),
		run(dist.BlockTemplate(), dist.CollapsedOn(0), "block->collapsed"),
		run(dist.CollapsedOn(0), dist.BlockTemplate(), "collapsed->block"),
		run(dist.BlockTemplate(), dist.Proportions(8, 4, 2, 1, 1, 2, 4, 8), "block->weighted"),
	}
}
