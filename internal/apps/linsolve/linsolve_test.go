package linsolve

import (
	"testing"

	"pardis/internal/apps"
)

// TestRunSolvesKnownSystem runs each client variant Figure 2 measures on
// the wall clock and checks the solutions against the system's known one:
// the direct within 1e-12, the iterative within 1e-6, and the two within
// 1e-4 of each other. n = 200 keeps the run short under the race detector.
func TestRunSolvesKnownSystem(t *testing.T) {
	const n = 200
	topology := Topology{
		Direct:    apps.Program{Host: "HOST_1", Threads: 2},
		Iterative: apps.Program{Host: "HOST_2", Threads: 2},
		Client:    apps.Program{Host: "HOST_1", Threads: 2},
	}
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"overlap", Params{}},
		{"blocking", Params{Blocking: true}},
		{"direct-only", Params{SkipIterative: true}},
		{"iterative-only", Params{SkipDirect: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := Deploy(apps.NewInproc(), topology, c.p, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.DirectError > 1e-12 || r.IterativeError > 1e-6 || r.Difference > 1e-4 {
				t.Errorf("%+v: want errors within 1e-12 (direct) and 1e-6 (iterative), difference within 1e-4", r)
			}
			// Jacobi stops at its tolerance, so a solve that ran is off by
			// more than nothing; one that was skipped gives zero.
			if ran := r.IterativeError > 0; ran == c.p.SkipIterative {
				t.Errorf("%+v: iterative error says the solve ran %v", r, ran)
			}
			if both := r.Difference > 0; both != (c.p == Params{} || c.p.Blocking) {
				t.Errorf("%+v: difference says both solves ran %v", r, both)
			}
		})
	}
}
