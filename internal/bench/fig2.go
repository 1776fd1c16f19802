package bench

import (
	"fmt"

	"pardis/internal/apps"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
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

// solver typecodes: matrix is a dsequence of dynamically-sized rows, the
// vectors are dsequences of double (paper §4.1 IDL).
func solverIfaces() (direct, iterative *core.InterfaceDef) {
	row := typecode.SequenceOf(typecode.TCDouble, 0)
	matrix := typecode.DSequenceOf(row, 0, "BLOCK", "BLOCK")
	vector := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
	direct = &core.InterfaceDef{
		Name: "direct",
		Ops: []core.Operation{{
			Name: "solve",
			Params: []core.Param{
				core.NewParam("A", core.In, matrix),
				core.NewParam("B", core.In, vector),
				core.NewParam("X", core.Out, vector),
			},
		}},
	}
	iterative = &core.InterfaceDef{
		Name: "iterative",
		Ops: []core.Operation{{
			Name: "solve",
			Params: []core.Param{
				core.NewParam("tol", core.In, typecode.TCDouble),
				core.NewParam("A", core.In, matrix),
				core.NewParam("B", core.In, vector),
				core.NewParam("X", core.Out, vector),
			},
		}},
	}
	return direct, iterative
}

// solverServant charges the cost model and produces the result holder; the
// real numerics live in internal/apps and are exercised by the runnable
// example — here the simulated clock is the measurement.
type solverServant struct {
	work func(n int) float64 // total reference-seconds for size n
}

func (s solverServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "solve" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	// A is the first dsequence argument (index differs between ifaces).
	var a dseq.Distributed
	for _, v := range in {
		if d, ok := v.(dseq.Distributed); ok {
			a = d
			break
		}
	}
	n := a.GlobalLen()
	th := ctx.Thread
	th.Compute(apps.PerThread(s.work(n), th.Size()))
	x := dseq.NewFromLayout[float64](th, dist.BlockTemplate().Layout(n, th.Size()), dseq.Float64Codec{})
	return nil, []any{x}, nil
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

	directIface, iterIface := solverIfaces()
	dIOR := w.spmdServer("direct", "onyx", directProcs, func(adapter *poa.POA) (core.IOR, error) {
		return adapter.RegisterSPMD("direct-1", directIface, solverServant{work: apps.DirectSolveWork})
	})
	iIOR := w.spmdServer("iterative", iterHost, iterProcs, func(adapter *poa.POA) (core.IOR, error) {
		return adapter.RegisterSPMD("itrt-1", iterIface, solverServant{work: func(n int) float64 {
			return apps.JacobiWork(n, apps.DefaultJacobiIters(n))
		}})
	})

	var elapsed vtime.Time
	w.spawn("client", "onyx", 2, endpoint{}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		dRef := peek[core.IOR](th, dIOR)
		iRef := peek[core.IOR](th, iIOR)
		dBind := mustBind(orb, dRef, directIface)
		iBind := mustBind(orb, iRef, iterIface)

		// Build the system: a dsequence of dynamically-sized rows plus
		// the right-hand side, block-distributed over the client threads.
		rowTC := typecode.SequenceOf(typecode.TCDouble, 0)
		a := dseq.New[any](th, n, dist.BlockTemplate(), dseq.AnyCodec{TC: rowTC})
		for i := range a.Local() {
			a.Local()[i] = make([]float64, n)
		}
		b := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		x1 := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		x2 := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})

		th.Barrier()
		start := th.Proc().Now()

		// The paper's listing: non-blocking solve on the iterative
		// server overlapped with a blocking solve on the direct server,
		// then the future is read. The blocking variant waits out each
		// solve in turn.
		var cell interface{ Wait() error }
		switch {
		case cfg.skipIterative:
		case cfg.blocking:
			if _, err := iBind.Invoke("solve", []any{1e-6, a, b, x1}); err != nil {
				panic(err)
			}
		default:
			c, err := iBind.InvokeNB("solve", []any{1e-6, a, b, x1})
			if err != nil {
				panic(err)
			}
			cell = c
		}
		if !cfg.skipDirect {
			if _, err := dBind.Invoke("solve", []any{a, b, x2}); err != nil {
				panic(err)
			}
		}
		if cell != nil {
			if err := cell.Wait(); err != nil {
				panic(err)
			}
		}
		// compute_difference over the local portions.
		th.Compute(apps.PerThread(float64(n)*1e-6, th.Size()))
		th.Barrier()
		if th.Rank() == 0 {
			elapsed = th.Proc().Now() - start
			if err := dBind.Shutdown("done"); err != nil {
				panic(err)
			}
			if err := iBind.Shutdown("done"); err != nil {
				panic(err)
			}
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
