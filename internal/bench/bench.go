// Package bench regenerates the measurements of the paper's evaluation
// section on the simulated testbed: Figure 2 (distributed vs. local solver
// execution), Figure 4 (centralized vs. distributed single objects on a
// parallel server) and Figure 5 (the POOMA/PSTL pipeline), plus ablation
// experiments for the design choices DESIGN.md calls out.
//
// Every experiment that invokes objects is a PARDIS program, written
// against what pardis-idl generates. Figures 2, 4 and 5 call the Deploy of
// the paper's applications, internal/apps/linsolve, dnadb and pipeline,
// with apps.Sim, where the examples pass apps.Inproc: a figure's file holds
// only its topology tables, links and the clock read around the run. The
// rest use the harness's own interfaces, benchidl/bench.idl. Everything
// runs the full stack on the vtime virtual clock over the simnet machine
// models, so results are deterministic functions of the model, comparable
// with the 1997 testbed in *shape* (who wins, by what factor, where curves
// cross), not in microseconds.
package bench

// must returns v, or panics with err: a simulated program has nobody to
// hand an error to.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics with err, if there is one.
func check(err error) {
	if err != nil {
		panic(err)
	}
}
