package bench

import (
	"pardis/internal/apps"
	"pardis/internal/apps/linsolveidl"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
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

// directServant and iterativeServant implement linsolve.idl's two solvers
// by their cost models: each charges its solve and hands back the result's
// holder. The real numerics live in internal/apps and run in
// examples/linsolve — here the simulated clock is the measurement.
type (
	directServant    struct{}
	iterativeServant struct{}
)

func (directServant) Solve(ctx *poa.Context, A *dseq.DSeq[any], _ *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	n := A.GlobalLen()
	return solveCost(ctx, n, apps.DirectSolveWork(n)), nil
}

func (iterativeServant) Solve(ctx *poa.Context, _ float64, A *dseq.DSeq[any], _ *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	n := A.GlobalLen()
	return solveCost(ctx, n, apps.JacobiWork(n, apps.DefaultJacobiIters(n))), nil
}

// solveCost charges the calling thread its share of work reference seconds
// and returns a block-distributed solution of length n.
func solveCost(ctx *poa.Context, n int, work float64) *dseq.DSeq[float64] {
	th := ctx.Thread
	th.Compute(apps.PerThread(work, th.Size()))
	return dseq.NewFromLayout[float64](th, dist.BlockTemplate().Layout(n, th.Size()), dseq.Float64Codec{})
}

// fig2Config selects one Figure 2 run. The client is two threads on HOST 1
// (onyx); the direct server has HOST 1's four nodes and the iterative
// server HOST 2's (powerchallenge) ten, unless they share HOST 1.
type fig2Config struct {
	sameServer                bool // both servers on HOST 1, two nodes each
	skipDirect, skipIterative bool // run only one component (component curves)
	blocking                  bool // solve iteratively, then directly: no overlap
}

// runFig2 runs one Figure 2 configuration for problem size n and returns
// the client-perceived execution time in seconds.
func runFig2(n int, cfg fig2Config) float64 {
	w := newWorld()
	w.connect("onyx", "powerchallenge", "atm")
	directProcs, iterHost, iterProcs := 4, "powerchallenge", 10
	if cfg.sameServer {
		directProcs, iterHost, iterProcs = 2, "onyx", 2
	}

	dIOR := w.spmdServer("direct", "onyx", directProcs, func(adapter *poa.POA) (core.IOR, error) {
		return linsolveidl.RegisterDirectSPMD(adapter, "direct-1", directServant{})
	})
	iIOR := w.spmdServer("iterative", iterHost, iterProcs, func(adapter *poa.POA) (core.IOR, error) {
		return linsolveidl.RegisterIterativeSPMD(adapter, "itrt-1", iterativeServant{})
	})

	var elapsed vtime.Time
	w.spawn("client", "onyx", 2, endpoint{}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		dRef := peek[core.IOR](th, dIOR)
		iRef := peek[core.IOR](th, iIOR)
		dSolver := must(linsolveidl.SPMDBindDirect(orb, dRef))
		iSolver := must(linsolveidl.SPMDBindIterative(orb, iRef))

		// Build the system: a dsequence of dynamically-sized rows plus
		// the right-hand side, block-distributed over the client threads.
		a := dseq.New[any](th, n, dist.BlockTemplate(), dseq.AnyCodec{TC: linsolveidl.RowTC()})
		for i := range a.Local() {
			a.Local()[i] = make([]float64, n)
		}
		b := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})

		th.Barrier()
		start := th.Proc().Now()

		// The paper's listing: non-blocking solve on the iterative
		// server overlapped with a blocking solve on the direct server,
		// then the future is read. The blocking variant waits out each
		// solve in turn.
		overlap := !cfg.skipIterative && !cfg.blocking
		var x1 future.Future[*dseq.DSeq[float64]]
		switch {
		case overlap:
			x1 = must(iSolver.SolveNB(1e-6, a, b))
		case !cfg.skipIterative:
			must(iSolver.Solve(1e-6, a, b))
		}
		if !cfg.skipDirect {
			must(dSolver.Solve(a, b))
		}
		if overlap {
			x1.MustGet()
		}
		// compute_difference over the local portions.
		th.Compute(apps.PerThread(float64(n)*1e-6, th.Size()))
		th.Barrier()
		if th.Rank() == 0 {
			elapsed = th.Proc().Now() - start
			check(dSolver.Binding().Shutdown("done"))
			check(iSolver.Binding().Shutdown("done"))
		}
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
			Direct:      runFig2(n, fig2Config{skipIterative: true}),
			Iterative:   runFig2(n, fig2Config{skipDirect: true}),
			Distributed: runFig2(n, fig2Config{}),
			SameServer:  runFig2(n, fig2Config{sameServer: true}),
		})
	}
	return out
}
