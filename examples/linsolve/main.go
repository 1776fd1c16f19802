// Linsolve reproduces the paper's §4.1 scenario: the same linear system is
// solved concurrently by a direct method and an iterative method running as
// SPMD objects on two different "hosts", and the client compares the
// returned solutions. The client code mirrors the paper's listing: a
// non-blocking invocation on the iterative solver overlaps with a blocking
// invocation on the direct solver, and the future X1 is read afterwards.
//
// The stubs, skeletons and servant interfaces are package
// internal/apps/linsolveidl, which the PARDIS IDL compiler generates from
// linsolve.idl; the Figure 2 harness (internal/bench) uses the same
// package. Run with:
//
//	go run ./examples/linsolve
package main

import (
	"fmt"
	"log"
	"sync"

	"pardis/internal/apps"
	"pardis/internal/apps/linsolveidl"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
)

const (
	host1 = "HOST_1" // the paper's 4-node SGI Onyx
	host2 = "HOST_2" // the paper's 10-node SGI Power Challenge
	n     = 64       // problem size (kept small: this example computes for real)
)

// directImpl implements the generated linsolveidl.DirectServant interface:
// Gaussian elimination on gathered data, solution scattered back blockwise.
type directImpl struct{}

func (directImpl) Solve(ctx *poa.Context, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	th := ctx.Thread
	rows := A.GatherTo(0)
	b := B.GatherTo(0)
	var full []float64
	status := ""
	if th.Rank() == 0 {
		a := make([][]float64, len(rows))
		for i, r := range rows {
			a[i] = r.([]float64)
		}
		x, err := apps.GaussSolve(a, b)
		if err != nil {
			status = err.Error()
		} else {
			full = x
		}
	}
	// Keep the error decision collective.
	if msg := string(rts.Bcast(th, 0, []byte(status))); msg != "" {
		return nil, fmt.Errorf("direct solver: %s", msg)
	}
	return dseq.Scatter(th, 0, full, A.GlobalLen(), dist.BlockTemplate(), dseq.Float64Codec{}), nil
}

// iterativeImpl implements the generated linsolveidl.IterativeServant
// interface with the parallel Jacobi sweep; the result reuses the thread's
// local slice through the distributed sequence's no-ownership constructor.
type iterativeImpl struct{}

func (iterativeImpl) Solve(ctx *poa.Context, tol float64, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	th := ctx.Thread
	local := A.Local()
	localA := make([][]float64, len(local))
	for i, r := range local {
		localA[i] = r.([]float64)
	}
	first := 0
	if len(localA) > 0 {
		first = A.DLayout().Start(th.Rank())
	}
	lx, iters, err := apps.JacobiSolve(th, first, localA, B.Local(), A.GlobalLen(), tol, 50_000)
	if err != nil {
		return nil, err
	}
	if th.Rank() == 0 {
		fmt.Printf("  [itrt_solver] converged in %d iterations\n", iters)
	}
	return dseq.Wrap(th, B.DLayout(), lx, dseq.Float64Codec{}), nil
}

// startSolverServer launches an SPMD solver server with p computing
// threads, registers its object with the repository under name, and leaves
// it polling in ImplIsReady.
func startSolverServer(fab *nexus.Inproc, repoAddr, name, host string, p int,
	register func(adapter *poa.POA) (core.IOR, error)) *sync.WaitGroup {

	var wg sync.WaitGroup
	wg.Add(1)
	ready := make(chan struct{})
	go func() {
		defer wg.Done()
		rts.NewChanGroup(host, p).Run(func(th rts.Thread) {
			router := core.NewRouter(fab.NewEndpoint(name))
			adapter := poa.New(th, router, nil)
			ior, err := register(adapter)
			if err != nil {
				log.Fatal(err)
			}
			if th.Rank() == 0 {
				orb := core.NewORB(core.NewRouter(fab.NewEndpoint(name+"-reg")), nil, nil)
				repo, err := registry.Open(orb, repoAddr)
				if err != nil {
					log.Fatal(err)
				}
				if err := repo.Register(name, ior); err != nil {
					log.Fatal(err)
				}
				close(ready)
			}
			th.Barrier()
			adapter.ImplIsReady()
		})
	}()
	<-ready // registration visible before any client resolves the name
	return &wg
}

func main() {
	fab := nexus.NewInproc()

	// Object repository (naming domain).
	repoAddr := startRepository(fab)

	// Two parallel servers on their respective hosts.
	wgD := startSolverServer(fab, repoAddr, "direct_solver", host1, 2,
		func(a *poa.POA) (core.IOR, error) {
			return linsolveidl.RegisterDirectSPMD(a, "direct-1", directImpl{})
		})
	wgI := startSolverServer(fab, repoAddr, "itrt_solver", host2, 2,
		func(a *poa.POA) (core.IOR, error) {
			return linsolveidl.RegisterIterativeSPMD(a, "itrt-1", iterativeImpl{})
		})

	// The known system (and its exact solution, for checking).
	a, b, exact := apps.GenerateSystem(n, 2026)

	// --- SPMD client: the paper's listing, lines 00-11. -----------------
	const clientThreads = 2
	diffCh := make(chan float64, 1)
	rts.NewChanGroup("client-host", clientThreads).Run(func(th rts.Thread) {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint(fmt.Sprintf("client-%d", th.Rank()))), th, nil)
		repo, err := registry.Open(orb, repoAddr)
		if err != nil {
			log.Fatal(err)
		}

		// 00: direct_var d_solver = direct::_spmd_bind("direct_solver", HOST_1);
		dIOR, err := repo.Resolve(orb, "direct_solver", host1)
		if err != nil {
			log.Fatal(err)
		}
		dSolver, err := linsolveidl.SPMDBindDirect(orb, dIOR)
		if err != nil {
			log.Fatal(err)
		}
		// 01: iterative_var i_solver = iterative::_spmd_bind("itrt_solver", HOST_2);
		iIOR, err := repo.Resolve(orb, "itrt_solver", host2)
		if err != nil {
			log.Fatal(err)
		}
		iSolver, err := linsolveidl.SPMDBindIterative(orb, iIOR)
		if err != nil {
			log.Fatal(err)
		}

		// 02-04: matrix A(N); vector B(N); initialize_system(A, B);
		A := dseq.New[any](th, n, dist.BlockTemplate(), dseq.AnyCodec{TC: linsolveidl.RowTC()})
		B := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		for loc := range A.Local() {
			g := A.DLayout().GlobalIndex(th.Rank(), loc)
			A.Local()[loc] = append([]float64(nil), a[g]...)
			B.Local()[loc] = b[g]
		}

		// 07-08: non-blocking invocation on the remote iterative solver...
		tolerance := 0.000001
		x1Future, err := iSolver.SolveNB(tolerance, A, B)
		if err != nil {
			log.Fatal(err)
		}
		// 09: ...overlapped with a blocking one on the direct solver.
		x2Real, err := dSolver.Solve(A, B)
		if err != nil {
			log.Fatal(err)
		}
		// 10: X1_real = X1; (reading the future blocks until resolved)
		x1Real := x1Future.MustGet()

		// 11: double difference = compute_difference(X1_real, X2_real);
		x1 := x1Real.GatherTo(0)
		x2 := x2Real.GatherTo(0)
		if th.Rank() == 0 {
			difference := apps.MaxDiff(x1, x2)
			fmt.Printf("agreement of methods: max |x1-x2| = %.2e\n", difference)
			fmt.Printf("against exact solution: direct %.2e, iterative %.2e\n",
				apps.MaxDiff(x2, exact), apps.MaxDiff(x1, exact))
			diffCh <- difference
			dSolver.Binding().Shutdown("done")
			iSolver.Binding().Shutdown("done")
		}
	})

	wgD.Wait()
	wgI.Wait()
	if d := <-diffCh; d > 1e-4 {
		log.Fatalf("methods disagree: %v", d)
	}
	fmt.Println("linsolve example completed")
}

// startRepository runs the object repository server and returns its
// transport address.
func startRepository(fab *nexus.Inproc) string {
	addrCh := make(chan string, 1)
	go func() {
		th := rts.NewChanGroup("repo-host", 1).Thread(0)
		router := core.NewRouter(fab.NewEndpoint("repository"))
		adapter := poa.New(th, router, nil)
		if _, err := regidl.RegisterRepositorySingle(adapter, registry.RepositoryKey, registry.NewRepository()); err != nil {
			log.Fatal(err)
		}
		addrCh <- string(router.Addr())
		adapter.ImplIsReady()
	}()
	return <-addrCh
}
