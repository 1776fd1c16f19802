// Linsolve runs the paper's §4.1 listing at its largest size, n = 1200:
// linsolve.Deploy, which pardis-bench -fig 2 runs on virtual time, on the
// wall clock on the in-process launcher. The client resolves the solvers
// through an object repository, as the listing binds them; a non-blocking
// solve on an iterative SPMD solver overlaps a blocking one on a direct
// solver, and both solutions must match each other and the known one.
//
// Run with:
//
//	go run ./examples/linsolve
package main

import (
	"fmt"
	"log"

	"pardis/internal/apps"
	"pardis/internal/apps/linsolve"
)

func main() {
	// HOST_1 and HOST_2 stand for the paper's SGI Onyx and Power Challenge.
	r, err := linsolve.Deploy(apps.NewInproc(), linsolve.Topology{
		Direct:    apps.Program{Host: "HOST_1", Threads: 2},
		Iterative: apps.Program{Host: "HOST_2", Threads: 2},
		Client:    apps.Program{Host: "HOST_1", Threads: 2},
	}, linsolve.Params{}, 1200, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("agreement of methods: max |x1-x2| = %.2e\n", r.Difference)
	fmt.Printf("against exact solution: direct %.2e, iterative %.2e\n", r.DirectError, r.IterativeError)
	if r.Difference > 1e-4 || r.DirectError > 1e-12 || r.IterativeError > 1e-6 {
		log.Fatal("want the methods within 1e-4 of each other, the direct within 1e-12 and the iterative within 1e-6 of the exact solution")
	}
	fmt.Println("linsolve example completed")
}
