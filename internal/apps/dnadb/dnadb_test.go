package dnadb

import (
	"fmt"
	"slices"
	"testing"

	"pardis/internal/apps"
	"pardis/internal/apps/dnadbidl"
)

// TestRunMatchesSequentialSearch runs the application on the wall clock
// under both placements and several server sizes and checks the search's
// status and each list's final contents against a sequential search of the
// whole database, element for element.
func TestRunMatchesSequentialSearch(t *testing.T) {
	db := apps.GenerateDNA(300, 60, 1997)
	want := apps.SearchAll(db, Query)
	for k, l := range want {
		if len(l) == 0 {
			t.Fatalf("the sequential search finds no %s match: the test would check nothing", apps.DerivativeKind(k).Name())
		}
	}
	for _, procs := range []int{1, 3, 4, 8} {
		for _, p := range []Params{{}, {Centralized: true}} {
			t.Run(fmt.Sprintf("procs=%d/centralized=%v", procs, p.Centralized), func(t *testing.T) {
				topology := Topology{Server: apps.Program{Host: "HOST_2", Threads: procs}, Client: "HOST_1"}
				status, lists, err := Deploy(apps.NewInproc(), topology, p, db, nil)
				if err != nil {
					t.Fatal(err)
				}
				if status != dnadbidl.StatusFOUND {
					t.Errorf("status %d, want FOUND", status)
				}
				for k := range lists {
					if !slices.Equal(lists[k], want[k]) {
						t.Errorf("%s list holds %d sequences, not the %d a sequential search finds, in its order",
							apps.DerivativeKind(k).Name(), len(lists[k]), len(want[k]))
					}
				}
			})
		}
	}
}
