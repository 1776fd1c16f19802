// Package linsolve is the paper's §4.1 application, written once against
// what pardis-idl generates from examples/linsolve/linsolve.idl (package
// linsolveidl): a direct and an iterative solver, each an SPMD object, and
// the client of the paper's listing, which overlaps a non-blocking solve on
// the iterative solver with a blocking solve on the direct one and compares
// the two solutions.
//
// Each component charges its cost model through Thread.Compute, a no-op on
// the wall clock, and runs its numerics unless its thread is an
// *rts.SimThread. Deploy starts the listing's programs through a launcher:
// Figure 2 (internal/bench) on virtual time, examples/linsolve on the wall
// clock in one process.
package linsolve

import (
	"errors"
	"fmt"

	"pardis/internal/apps"
	"pardis/internal/apps/linsolveidl"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
)

const (
	tolerance = 1e-6   // the iterative solve's, as in the paper's listing
	maxIter   = 50_000 // Jacobi sweeps before the iterative solver gives up
	seed      = 2026   // of the known system the client solves on the wall clock
)

// Params selects which parts of the listing run; the zero value is the
// whole listing, Figure 2's distributed curve.
type Params struct {
	SkipDirect, SkipIterative bool // run only one component (Figure 2's component curves)
	Blocking                  bool // solve iteratively, then directly: no overlap
}

// Direct is the direct solver's servant: Gaussian elimination of the
// system gathered on rank 0, the solution scattered back blockwise.
type Direct struct{}

// Solve implements linsolveidl.DirectServant.
func (Direct) Solve(ctx *poa.Context, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	th := ctx.Thread
	n := A.GlobalLen()
	th.Compute(apps.PerThread(apps.DirectSolveWork(n), th.Size()))
	if rts.Virtual(th) {
		return dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{}), nil
	}
	var x []float64
	var status []byte
	if rows, b := A.GatherTo(0), B.GatherTo(0); th.Rank() == 0 {
		var err error
		if x, err = apps.GaussSolve(float64Rows(rows), b); err != nil {
			status = []byte(err.Error())
		}
	}
	// Keep the error decision collective.
	if msg := string(rts.Bcast(th, 0, status)); msg != "" {
		return nil, fmt.Errorf("direct solver: %s", msg)
	}
	return dseq.Scatter(th, 0, x, n, dist.BlockTemplate(), dseq.Float64Codec{}), nil
}

// Iterative is the iterative solver's servant: parallel Jacobi sweeps over
// the rows each thread holds, the solution returned in B's layout.
type Iterative struct{}

// Solve implements linsolveidl.IterativeServant.
func (Iterative) Solve(ctx *poa.Context, tol float64, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	th := ctx.Thread
	n := A.GlobalLen()
	th.Compute(apps.PerThread(apps.JacobiWork(n, apps.DefaultJacobiIters(n)), th.Size()))
	if rts.Virtual(th) {
		return dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{}), nil
	}
	first := 0
	if len(A.Local()) > 0 {
		first = A.DLayout().Start(th.Rank())
	}
	x, _, err := apps.JacobiSolve(th, first, float64Rows(A.Local()), B.Local(), n, tol, maxIter)
	if err != nil {
		return nil, err
	}
	return dseq.Wrap(th, B.DLayout(), x, dseq.Float64Codec{}), nil
}

func float64Rows(rows []any) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = r.([]float64)
	}
	return out
}

// Result is what the client's rank 0 computes on the wall clock:
// compute_difference's max |x1-x2|, and each solution's max error against
// the system's known solution. What a skipped component would give is zero.
type Result struct {
	Difference, DirectError, IterativeError float64
}

// client runs one thread of the paper's listing on an n x n system: it
// resolves the solvers t places through the repository behind repo, and
// rank 0 shuts the solvers and the repository down at the end, also after
// an error. span, marked after a barrier at each end, measures the solves
// and compute_difference. On the wall clock the system has a known
// solution, and rank 0 returns the Result.
func client(th rts.Thread, orb *core.ORB, p Params, n int, t Topology, repo apps.Ref, span *apps.Span) (r Result, err error) {
	repoRef, err := repo(th)
	if err != nil {
		return r, err
	}
	repository, err := regidl.BindRepository(orb, repoRef[0])
	if err != nil {
		return r, err
	}
	if th.Rank() == 0 {
		defer func() { err = errors.Join(err, repository.Binding().Shutdown("done")) }()
	}
	names, err := registry.Open(orb, repoRef[0].Addrs[0])
	if err != nil {
		return r, err
	}
	// 00: direct_var d_solver = direct::_spmd_bind("direct_solver", HOST_1);
	direct, derr := names.Resolve(orb, "direct_solver", t.Direct.Host)
	// 01: iterative_var i_solver = iterative::_spmd_bind("itrt_solver", HOST_2);
	iterative, err := names.Resolve(orb, "itrt_solver", t.Iterative.Host)
	if err = errors.Join(derr, err); err != nil {
		return r, err
	}
	dSolver, derr := linsolveidl.SPMDBindDirect(orb, direct)
	iSolver, err := linsolveidl.SPMDBindIterative(orb, iterative)
	if err = errors.Join(derr, err); err != nil {
		return r, err
	}
	if th.Rank() == 0 {
		defer func() { err = errors.Join(err, dSolver.Binding().Shutdown("done"), iSolver.Binding().Shutdown("done")) }()
	}

	// 02-04: matrix A(N); vector B(N); initialize_system(A, B): BLOCK
	// dsequences of rows and of the right-hand side, zeros on virtual time.
	A := dseq.New[any](th, n, dist.BlockTemplate(), dseq.AnyCodec{TC: linsolveidl.RowTC()})
	B := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
	var a [][]float64
	var b, exact []float64
	if !rts.Virtual(th) {
		a, b, exact = apps.GenerateSystem(n, seed)
	}
	for loc := range A.Local() {
		if a == nil {
			A.Local()[loc] = make([]float64, n)
			continue
		}
		g := A.DLayout().GlobalIndex(th.Rank(), loc)
		A.Local()[loc], B.Local()[loc] = a[g], b[g]
	}

	th.Barrier()
	span.Start(th)
	// 07-10: a non-blocking solve on the iterative solver overlapped with a
	// blocking one on the direct solver, then the future X1 is read. The
	// blocking variant waits out each solve in turn.
	overlap := !p.SkipIterative && !p.Blocking
	var x1, x2 *dseq.DSeq[float64]
	var x1Future future.Future[*dseq.DSeq[float64]]
	switch {
	case overlap:
		x1Future, err = iSolver.SolveNB(tolerance, A, B)
	case !p.SkipIterative:
		x1, err = iSolver.Solve(tolerance, A, B)
	}
	if err == nil && !p.SkipDirect {
		x2, err = dSolver.Solve(A, B)
	}
	if err == nil && overlap {
		x1, err = x1Future.Get()
	}
	if err != nil {
		return r, err
	}
	// 11: double difference = compute_difference(X1_real, X2_real);
	th.Compute(apps.PerThread(float64(n)*1e-6, th.Size()))
	if !rts.Virtual(th) {
		var s1, s2 []float64
		if x1 != nil {
			s1 = x1.GatherTo(0)
		}
		if x2 != nil {
			s2 = x2.GatherTo(0)
		}
		r = Result{DirectError: apps.MaxDiff(s2, exact), IterativeError: apps.MaxDiff(s1, exact)}
		if s1 != nil && s2 != nil {
			r.Difference = apps.MaxDiff(s1, s2)
		}
	}
	th.Barrier()
	span.Stop(th)
	return r, nil
}

// Topology places the listing's programs; the one-thread object repository
// runs beside the client.
type Topology struct {
	Direct, Iterative, Client apps.Program
}

// Deploy runs the listing on an n x n system through l: the two solvers,
// an object repository that names them once they are up, and the client,
// whose solves span measures. It returns the client's Result once every
// program has returned.
func Deploy(l apps.Launcher, t Topology, p Params, n int, span *apps.Span) (Result, error) {
	direct := l.Start("direct", t.Direct, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
		return linsolveidl.RegisterDirectSPMD(adapter, "direct-1", Direct{})
	}))
	iterative := l.Start("iterative", t.Iterative, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
		return linsolveidl.RegisterIterativeSPMD(adapter, "itrt-1", Iterative{})
	}))
	repo := l.Start("repository", apps.Program{Host: t.Client.Host, Threads: 1}, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
		names := registry.NewRepository()
		d, derr := direct(adapter.Thread())
		i, err := iterative(adapter.Thread())
		if err = errors.Join(derr, err); err == nil {
			err = errors.Join(names.Register(nil, "direct_solver", d[0].String()), names.Register(nil, "itrt_solver", i[0].String()))
		}
		if err != nil {
			return core.IOR{}, err
		}
		return regidl.RegisterRepositorySingle(adapter, registry.RepositoryKey, names)
	}))

	var result Result
	l.Start("client", t.Client, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
		r, err := client(th, orb, p, n, t, repo, span)
		if th.Rank() == 0 {
			result = r
		}
		return err
	})
	err := l.Wait()
	return result, err
}
