package bench

import "testing"

// These tests assert the *shape* claims of the paper's figures — who wins,
// by roughly what factor, where the anomalies sit — on the simulated
// testbed. EXPERIMENTS.md records the full sweeps.

func TestFigure2Shapes(t *testing.T) {
	pts := Figure2([]int{200, 600, 1200})
	for _, p := range pts {
		t.Logf("n=%4d direct=%.2f iterative=%.2f distributed=%.2f same=%.2f",
			p.N, p.Direct, p.Iterative, p.Distributed, p.SameServer)
		// The iterative method on the faster HOST 2 beats the direct
		// method on HOST 1 — distribution moved the slower component to
		// the faster resource.
		if p.Iterative >= p.Direct {
			t.Errorf("n=%d: iterative (HOST2) %.2f !< direct (HOST1) %.2f", p.N, p.Iterative, p.Direct)
		}
		// t = to + max(ti, td): the distributed run tracks the slower
		// component plus a modest overhead.
		slower := p.Direct
		if p.Iterative > slower {
			slower = p.Iterative
		}
		if p.Distributed < slower {
			t.Errorf("n=%d: distributed %.2f below its slower component %.2f", p.N, p.Distributed, slower)
		}
		if p.Distributed > slower*1.5 {
			t.Errorf("n=%d: distributed %.2f overhead too large vs %.2f", p.N, p.Distributed, slower)
		}
		// Substantial speedup over the single-server mode.
		if p.SameServer < 1.5*p.Distributed {
			t.Errorf("n=%d: same-server %.2f not substantially above distributed %.2f",
				p.N, p.SameServer, p.Distributed)
		}
	}
	// All curves grow with problem size.
	if !(pts[0].Distributed < pts[1].Distributed && pts[1].Distributed < pts[2].Distributed) {
		t.Error("distributed curve not monotone in problem size")
	}
	// The paper's top-of-chart landmark: the single-server run at n=1200
	// is in the ~190 s range.
	if pts[2].SameServer < 120 || pts[2].SameServer > 260 {
		t.Errorf("same-server at n=1200 = %.1f s, want the paper's ~190 s range", pts[2].SameServer)
	}
}

func TestFigure4Shapes(t *testing.T) {
	pts := Figure4([]int{1, 2, 3, 4, 5, 6, 7, 8})
	for _, p := range pts {
		t.Logf("P=%d centralized=%.1f distributed=%.1f diff=%.1f",
			p.Procs, p.Centralized, p.Distributed, p.Difference)
		// Distribution never loses.
		if p.Difference < -1e-9 {
			t.Errorf("P=%d: distributed placement slower than centralized", p.Procs)
		}
	}
	// P=1: the placements coincide.
	if pts[0].Difference > 0.5 {
		t.Errorf("P=1 difference = %.2f, want ~0", pts[0].Difference)
	}
	// Both curves fall with processors.
	if !(pts[7].Centralized < pts[0].Centralized && pts[7].Distributed < pts[0].Distributed) {
		t.Error("execution time does not fall with processors")
	}
	// The paper's remark: balancing by number (not weight) makes the
	// difference *shrink* from 2 to 3 processors.
	if !(pts[2].Difference < pts[1].Difference) {
		t.Errorf("difference did not dip from P=2 (%.1f) to P=3 (%.1f)",
			pts[1].Difference, pts[2].Difference)
	}
	// And recover beyond.
	if !(pts[3].Difference > pts[2].Difference) {
		t.Error("difference did not recover after the P=3 dip")
	}
	// Landmarks: ~110 s at P=1, centralized ~40-50 s at P=8.
	if pts[0].Centralized < 80 || pts[0].Centralized > 140 {
		t.Errorf("P=1 = %.1f s, want the paper's ~110 s range", pts[0].Centralized)
	}
}

func TestFigure5Shapes(t *testing.T) {
	pts := Figure5([]int{1, 2, 4, 8})
	for _, p := range pts {
		t.Logf("P=%d overall=%.2f diffusion=%.2f gradient=%.2f",
			p.Procs, p.Overall, p.Diffusion, p.Gradient)
		// The metaapplication costs more than its dominant component.
		if p.Overall < p.Diffusion {
			t.Errorf("P=%d: overall %.2f below diffusion component %.2f", p.Procs, p.Overall, p.Diffusion)
		}
	}
	// Components scale with processors.
	if !(pts[3].Diffusion < pts[0].Diffusion/2) {
		t.Error("diffusion component does not scale")
	}
	if !(pts[3].Gradient < pts[0].Gradient) {
		t.Error("gradient component does not scale at all")
	}
	// The paper's point: the overall advantage does not scale well — the
	// overall curve flattens while the component keeps falling. Compare
	// relative drops from P=4 to P=8.
	overallDrop := pts[2].Overall / pts[3].Overall
	diffusionDrop := pts[2].Diffusion / pts[3].Diffusion
	if overallDrop >= diffusionDrop {
		t.Errorf("overall kept scaling (%.2fx) as fast as the component (%.2fx) — no flattening",
			overallDrop, diffusionDrop)
	}
	// Send time ≈ compute time at scale: at P=8 the non-compute share of
	// the overall time is substantial.
	if gap := pts[3].Overall - pts[3].Diffusion; gap < 0.2*pts[3].Overall {
		t.Errorf("P=8 pipeline overhead %.2f s too small a share of %.2f s", gap, pts[3].Overall)
	}
}

func TestAblationShapes(t *testing.T) {
	tr := AblationParallelTransfer(300_000)
	t.Logf("transfer: %+v", tr)
	if tr[0].Seconds >= tr[1].Seconds {
		t.Error("direct parallel transfer not faster than funneled")
	}
	loc := AblationLocalShortcut(100_000)
	t.Logf("locality: %+v", loc)
	if loc[0].Seconds*2 >= loc[1].Seconds {
		t.Error("co-located invocation not far cheaper than remote")
	}
	nb := AblationNonBlocking(400)
	t.Logf("blocking: %+v", nb)
	if nb[0].Seconds >= nb[1].Seconds {
		t.Error("non-blocking overlap not faster than blocking sequence")
	}
	ow := AblationOneway(4)
	t.Logf("oneway: %+v", ow)
	if ow[1].Seconds > ow[0].Seconds {
		t.Error("oneway pipeline slower than two-way")
	}
	rd := AblationRedistribution(500_000)
	t.Logf("redistribution: %+v", rd)
	if rd[0].Seconds > rd[1].Seconds/10 {
		t.Error("no-op redistribution not near-free")
	}
	// collapsed->block funnels through one sender; costlier than the
	// all-to-all block->cyclic.
	if rd[3].Seconds <= rd[1].Seconds {
		t.Error("collapsed->block should cost more than block->cyclic")
	}
}

func TestDeterminism(t *testing.T) {
	a := Figure4([]int{3})[0]
	b := Figure4([]int{3})[0]
	if a != b {
		t.Fatalf("simulated experiment not deterministic: %+v vs %+v", a, b)
	}
	// The serve figure closes a loop through the runtime's own measurements:
	// replicas report their dispatch p95 to the registry and clients pick
	// members by it. That signal has to be virtual time too (poa's loadLat),
	// or the overload cells follow the host.
	s1, s2 := FigureServe(true), FigureServe(true)
	if len(s1) != len(s2) {
		t.Fatalf("serve figure: %d points, then %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("serve figure not deterministic:\n%+v\n%+v", s1[i], s2[i])
		}
	}
}
