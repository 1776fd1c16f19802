// Linsolve runs the paper's §4.1 listing on the wall clock at its largest
// size, n = 1200 (internal/apps/linsolve, the components pardis-bench
// -fig 2 runs on virtual time): a non-blocking solve on an iterative SPMD
// solver overlaps a blocking one on a direct solver, and both solutions must
// match each other and the system's known one.
//
// Run with:
//
//	go run ./examples/linsolve
package main

import (
	"fmt"
	"log"

	"pardis/internal/apps/linsolve"
)

func main() {
	r, err := linsolve.Run(linsolve.Params{}, 1200)
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
