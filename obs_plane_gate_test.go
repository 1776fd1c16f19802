// Observability-plane gate: the obs figure's retention cell re-runs
// in-process and the flight recorder's contract is asserted — under a mixed
// load whose interesting subset (designated errors and designated-slow
// invocations) is at most ~5%, at least 95% of the interesting traces must
// be retained, the boring bulk must recycle rather than accumulate, and the
// retained set must stay within its configured bound.
package pardis_test

import (
	"testing"

	"pardis/internal/bench"
)

func TestObsPlaneGate(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-load run takes seconds; skipped with -short")
	}
	pts := bench.FigureObs(true)
	var ret *bench.ObsPoint
	for i, pt := range pts {
		switch pt.Cell {
		case "retention":
			ret = &pts[i]
			t.Logf("retention: interesting=%d/%d recall=%.3f boring_retained=%d retained=%d/%d recycled=%d",
				pt.Interesting, pt.Invocations, pt.Recall, pt.BoringRetained,
				pt.RetainedCount, pt.RetainedBound, pt.Recycled)
		case "scrape":
			if pt.ScrapeNs <= 0 || pt.PageBytes <= 0 {
				t.Errorf("scrape cell degenerate: %+v", pt)
			}
		}
	}
	if ret == nil {
		t.Fatal("obs figure produced no retention cell")
	}

	// The load must actually be the shape the recorder is promised to
	// handle: mostly boring, a thin interesting tail.
	if ret.Interesting == 0 {
		t.Fatal("retention cell designated no interesting invocations — gate is vacuous")
	}
	if frac := float64(ret.Interesting) / float64(ret.Invocations); frac > 0.05 {
		t.Fatalf("interesting fraction %.3f > 0.05: cell mis-shaped", frac)
	}

	// The recorder's contract.
	if ret.Recall < 0.95 {
		t.Errorf("recall %.3f, want >= 0.95: the recorder is losing interesting traces", ret.Recall)
	}
	if ret.RetainedCount > ret.RetainedBound {
		t.Errorf("retained %d traces, bound %d: the retained set is not bounded",
			ret.RetainedCount, ret.RetainedBound)
	}
	// Boring traces must recycle. A scheduler stall can push the odd fast
	// invocation over the fixed slow threshold, so allow 1% of the boring
	// bulk, but the steady state is zero.
	if limit := max(1, ret.Boring/100); ret.BoringRetained > limit {
		t.Errorf("boring retained = %d (of %d boring), want <= %d: boring traces are not recycling",
			ret.BoringRetained, ret.Boring, limit)
	}
	if ret.Recycled == 0 {
		t.Error("recycled = 0: the buffer pool never turned over")
	}
}
