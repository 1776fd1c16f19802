// Dnadb runs the paper's §4.2 scenario: dnadb.Deploy, which pardis-bench
// -fig 4 runs on virtual time, on the wall clock on the in-process
// launcher. A 4-thread SPMD database is searched while the client queries
// five single list objects that its threads fill between search rounds.
// Each list must end up holding what a sequential search finds, in order.
//
// Run with:
//
//	go run ./examples/dnadb
package main

import (
	"fmt"
	"log"
	"slices"

	"pardis/internal/apps"
	"pardis/internal/apps/dnadb"
	"pardis/internal/apps/dnadbidl"
)

func main() {
	db := apps.GenerateDNA(2000, 60, 1997)
	topology := dnadb.Topology{Server: apps.Program{Host: "HOST_2", Threads: 4}, Client: "HOST_1"}
	status, lists, err := dnadb.Deploy(apps.NewInproc(), topology, dnadb.Params{}, db, nil)
	if err != nil {
		log.Fatal(err)
	}
	if status != dnadbidl.StatusFOUND {
		log.Fatalf("search status %d, want FOUND", status)
	}
	fmt.Println("search resolved: FOUND")
	want := apps.SearchAll(db, dnadb.Query)
	for k := range lists {
		fmt.Printf("final %-12s list: %4d sequences\n", apps.DerivativeKind(k).Name(), len(lists[k]))
		if !slices.Equal(lists[k], want[k]) {
			log.Fatalf("%s list differs from a sequential search's %d sequences", apps.DerivativeKind(k).Name(), len(want[k]))
		}
	}
	fmt.Println("exact list agrees with sequential oracle, and so do the other four")
}
