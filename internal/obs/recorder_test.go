package obs_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pardis/internal/obs"
)

// recTracer builds an enabled tail-mode tracer with a deterministic fixed
// slow threshold (1ms) and a tiny grace window so tests finalize eagerly
// via Flush.
func recTracer(cfg obs.RecorderConfig) *obs.Tracer {
	tr := obs.NewTracer(0)
	if cfg.FixedSlowNS == 0 {
		cfg.FixedSlowNS = 1e6
	}
	tr.EnableRecorder(cfg)
	return tr
}

// root records a completed root span (Parent 0) of the given duration.
func root(tr *obs.Tracer, trace uint64, op string, durNS int64) {
	tr.Record(obs.Span{
		Trace: trace, ID: trace * 100, Layer: obs.LayerStub,
		Name: "stub.invoke", Op: op, Start: 0, End: durNS,
	})
}

// TestRecorderRetentionMatrix is the decision table: slow-only, error-only,
// failover-only retained; boring recycled.
func TestRecorderRetentionMatrix(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{})

	root(tr, 1, "op", 5e6) // slow-only: 5ms > 1ms fixed threshold
	tr.MarkTrace(2, obs.RetainError)
	root(tr, 2, "op", 1000) // error-only, fast
	tr.MarkTrace(3, obs.RetainFailover)
	root(tr, 3, "op", 1000) // failover-only, fast
	root(tr, 4, "op", 1000) // boring
	tr.Flush()

	got := map[uint64]obs.Mark{}
	for _, rt := range tr.Retained() {
		got[rt.Trace] = rt.Marks
	}
	if len(got) != 3 {
		t.Fatalf("retained %d traces (%v), want 3", len(got), got)
	}
	if got[1]&obs.RetainSlow == 0 {
		t.Errorf("trace 1 marks = %v, want slow", got[1])
	}
	if got[2]&obs.RetainError == 0 {
		t.Errorf("trace 2 marks = %v, want error", got[2])
	}
	if got[3]&obs.RetainFailover == 0 {
		t.Errorf("trace 3 marks = %v, want failover", got[3])
	}
	if _, kept := got[4]; kept {
		t.Error("boring trace 4 was retained")
	}
	if tr.RetainedTotal() != 3 {
		t.Errorf("retained total = %d, want 3", tr.RetainedTotal())
	}
	if tr.RecycledTotal() != 1 {
		t.Errorf("recycled total = %d, want 1", tr.RecycledTotal())
	}
}

// TestRecorderShedAndRetryMarks covers the remaining mark bits, including a
// shed mark arriving for a trace no span ever reached (the server-side shed
// story: the mark alone must open and retain the buffer).
func TestRecorderShedAndRetryMarks(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{})
	tr.MarkTrace(10, obs.RetainShed) // no spans at all
	tr.MarkTrace(11, obs.RetainRetry)
	root(tr, 11, "op", 1000)
	tr.Flush()
	got := map[uint64]obs.Mark{}
	for _, rt := range tr.Retained() {
		got[rt.Trace] = rt.Marks
	}
	if got[10]&obs.RetainShed == 0 {
		t.Errorf("span-less shed trace: marks = %v, want shed", got[10])
	}
	if got[11]&obs.RetainRetry == 0 {
		t.Errorf("retry trace: marks = %v, want retry", got[11])
	}
}

// TestRecorderAdaptiveThreshold exercises the moving per-op threshold: a
// duration that is slow against a fast baseline stops being slow after the
// baseline itself drifts up. The drift is gradual (each step under the
// current threshold) because the estimator deliberately ignores slow
// samples — a burst of outliers must not raise the bar and hide itself.
func TestRecorderAdaptiveThreshold(t *testing.T) {
	tr := obs.NewTracer(0)
	tr.EnableRecorder(obs.RecorderConfig{SlowFactor: 4, SlowFloorNS: 1000})

	next := uint64(1)
	run := func(durNS int64) bool {
		id := next
		next++
		root(tr, id, "op", durNS)
		tr.Flush()
		for _, rt := range tr.Retained() {
			if rt.Trace == id {
				return rt.Marks&obs.RetainSlow != 0
			}
		}
		return false
	}
	// Baseline: fast roots at ~2µs. The first sample only seeds the mean.
	for i := 0; i < 20; i++ {
		if run(2000) {
			t.Fatal("baseline 2µs sample judged slow")
		}
	}
	// 40µs is 20x the 2µs mean: slow.
	if !run(40000) {
		t.Fatal("40µs root not judged slow against a 2µs baseline")
	}
	// Drift the body of the distribution up 10% per step to 30µs, then
	// soak; the EWMA (alpha 0.1) tracks a gradual shift.
	for d := int64(2000); d < 30000; d = d * 11 / 10 {
		run(d)
	}
	for i := 0; i < 50; i++ {
		run(30000)
	}
	if run(40000) {
		t.Fatal("40µs root still judged slow after the baseline drifted to 30µs")
	}
}

// TestRecorderBufferRecycling drives many boring traces through a small
// config and checks the pool actually recycles (no unbounded retained set,
// recycle counter advancing). Runs under -race in CI.
func TestRecorderBufferRecycling(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{MaxTraces: 8, MaxLive: 16, Grace: 2})
	for i := uint64(1); i <= 500; i++ {
		tr.Record(obs.Span{Trace: i, ID: i*10 + 1, Parent: i * 100, Layer: obs.LayerORB, Name: "orb.send", Start: 0, End: 10})
		root(tr, i, "op", 1000)
	}
	tr.Flush()
	if n := tr.RetainedCount(); n != 0 {
		t.Errorf("retained %d boring traces, want 0", n)
	}
	if rec := tr.RecycledTotal(); rec != 500 {
		t.Errorf("recycled = %d, want 500", rec)
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("dropped = %d spans, want 0", d)
	}
}

// TestRecorderBoringPathAllocs bounds the steady-state boring path: once
// the pool is warm, a boring trace (open, record spans, complete, finalize,
// recycle) must not allocate. Skipped under the race detector, which
// instruments allocations.
func TestRecorderBoringPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	tr := recTracer(obs.RecorderConfig{Grace: 1})
	var id uint64
	// Warm the pool, the grace queue, and the tombstone ring past its
	// capacity so its map stops growing (insert balanced by delete).
	for i := 0; i < 1500; i++ {
		id++
		root(tr, id, "op", 1000)
	}
	avg := testing.AllocsPerRun(200, func() {
		id++
		tr.Record(obs.Span{Trace: id, ID: id*10 + 1, Parent: id * 100, Layer: obs.LayerORB, Name: "orb.send", Start: 0, End: 10})
		root(tr, id, "op", 1000)
	})
	// One map-bucket allocation may amortize in as the live map rehashes;
	// a steady per-trace cost would show as >= 1.
	if avg > 0.5 {
		t.Errorf("boring path allocates %.2f allocs/trace, want ~0", avg)
	}
}

// TestRecorderRetainedLRUBound floods the recorder with marked traces and
// checks the retained ring holds the newest MaxTraces, evicting oldest.
func TestRecorderRetainedLRUBound(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{MaxTraces: 4, Grace: 1})
	for i := uint64(1); i <= 10; i++ {
		tr.MarkTrace(i, obs.RetainError)
		root(tr, i, "op", 1000)
	}
	tr.Flush()
	rts := tr.Retained()
	if len(rts) != 4 {
		t.Fatalf("retained %d, want 4 (the bound)", len(rts))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if rts[i].Trace != want {
			t.Errorf("retained[%d] = trace %d, want %d (newest-kept order)", i, rts[i].Trace, want)
		}
	}
}

// TestRecorderLateSpans: a server-side span arriving after its trace was
// retained joins the buffer; one arriving after the trace was recycled is
// dropped, not resurrected.
func TestRecorderLateSpans(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{Grace: 1})

	tr.MarkTrace(1, obs.RetainError)
	root(tr, 1, "op", 1000)
	root(tr, 2, "op", 1000) // boring
	tr.Flush()

	// Late span of the retained trace 1: appended.
	tr.Record(obs.Span{Trace: 1, ID: 555, Parent: 100, Layer: obs.LayerPOA, Name: "poa.dispatch", Start: 0, End: 5})
	// Late span of the recycled trace 2: dropped.
	tr.Record(obs.Span{Trace: 2, ID: 556, Parent: 200, Layer: obs.LayerPOA, Name: "poa.dispatch", Start: 0, End: 5})

	rts := tr.Retained()
	if len(rts) != 1 || rts[0].Trace != 1 {
		t.Fatalf("retained = %v, want just trace 1", rts)
	}
	found := false
	for _, sp := range rts[0].Spans {
		if sp.ID == 555 {
			found = true
		}
	}
	if !found {
		t.Error("late span of retained trace was not appended")
	}
	if d := tr.Dropped(); d != 1 {
		t.Errorf("dropped = %d, want 1 (the tombstoned trace's late span)", d)
	}
	if n := tr.RetainedCount(); n != 1 {
		t.Errorf("retained count = %d after late spans, want 1", n)
	}
}

// TestRecorderSpansPerTraceBound: a trace over its span budget drops the
// excess and counts it.
func TestRecorderSpansPerTraceBound(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{SpansPerTrace: 4})
	tr.MarkTrace(1, obs.RetainError)
	for i := uint64(0); i < 8; i++ {
		tr.Record(obs.Span{Trace: 1, ID: 10 + i, Parent: 5, Layer: obs.LayerORB, Name: "orb.send"})
	}
	tr.Flush()
	rts := tr.Retained()
	if len(rts) != 1 || len(rts[0].Spans) != 4 {
		t.Fatalf("retained spans = %d, want 4", len(rts[0].Spans))
	}
	if d := tr.Dropped(); d != 4 {
		t.Errorf("dropped = %d, want 4", d)
	}
}

// TestRecorderMaxLiveEviction: overflowing the live bound finalizes the
// oldest live trace early — retained iff marked, even rootless.
func TestRecorderMaxLiveEviction(t *testing.T) {
	tr := recTracer(obs.RecorderConfig{MaxLive: 4})
	tr.MarkTrace(1, obs.RetainShed) // oldest, marked, never completes
	for i := uint64(2); i <= 6; i++ {
		tr.Record(obs.Span{Trace: i, ID: i * 10, Parent: 5, Layer: obs.LayerORB, Name: "orb.send"})
	}
	// Trace 1 must have been evicted (live bound 4) and retained rootless.
	rts := tr.Retained()
	if len(rts) != 1 || rts[0].Trace != 1 || rts[0].Marks&obs.RetainShed == 0 {
		t.Fatalf("retained = %+v, want the evicted marked trace 1", rts)
	}
}

// TestRecorderModeSwitch: ring mode semantics are untouched by a recorder
// enable/disable cycle, and Spans() serves the right store in each mode.
func TestRecorderModeSwitch(t *testing.T) {
	tr := obs.NewTracer(4)
	tr.SetEnabled(true)
	tr.Record(obs.Span{Trace: 1, ID: 1, Name: "ring"})
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("ring mode spans = %d, want 1", n)
	}
	tr.EnableRecorder(obs.RecorderConfig{FixedSlowNS: 1e6})
	if !tr.RecorderEnabled() {
		t.Fatal("RecorderEnabled() = false after EnableRecorder")
	}
	tr.MarkTrace(7, obs.RetainError)
	root(tr, 7, "op", 10)
	tr.Flush()
	if n := tr.RetainedCount(); n != 1 {
		t.Fatalf("tail mode retained = %d, want 1", n)
	}
	tr.DisableRecorder()
	if tr.RecorderEnabled() {
		t.Fatal("RecorderEnabled() = true after DisableRecorder")
	}
	// Back to the ring: the old ring content is still there.
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("ring spans after disable = %d, want 1", n)
	}
}

// TestSLOAccounting drives a window of good and bad observations through
// one op and checks burn rate and budget.
func TestSLOAccounting(t *testing.T) {
	s := obs.NewSLOSet(obs.SLOConfig{Objective: 0.99, LatencyTarget: 0.010, Window: 30, Slots: 30})
	now := 100.0
	s.SetClock(func() float64 { return now })

	// 98 good, 1 slow-bad, 1 failed-bad → bad fraction 2%, objective 1%:
	// burn rate 2, budget exhausted.
	get, at := s.Op("get"), int64(now*1e9)
	for i := 0; i < 98; i++ {
		get.Observe(at, 0.001, false)
	}
	get.Observe(at, 0.050, false) // over latency target
	get.Observe(at, 0.001, true)  // failed
	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("%d ops, want 1", len(snaps))
	}
	sn := snaps[0]
	if sn.Good != 98 || sn.Bad != 2 {
		t.Fatalf("good/bad = %d/%d, want 98/2", sn.Good, sn.Bad)
	}
	if sn.BurnRate < 1.9 || sn.BurnRate > 2.1 {
		t.Errorf("burn rate = %g, want ~2", sn.BurnRate)
	}
	if sn.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %g, want 0 (clamped)", sn.BudgetRemaining)
	}

	// Advance past the window: the sliding buckets age out, lifetime
	// totals stay.
	now += 31
	sn = s.Snapshot()[0]
	if sn.Good != 0 || sn.Bad != 0 {
		t.Errorf("window counts after expiry = %d/%d, want 0/0", sn.Good, sn.Bad)
	}
	if sn.GoodTotal != 98 || sn.BadTotal != 2 {
		t.Errorf("lifetime totals = %d/%d, want 98/2", sn.GoodTotal, sn.BadTotal)
	}
	if sn.BurnRate != 0 || sn.BudgetRemaining != 1 {
		t.Errorf("empty window burn/budget = %g/%g, want 0/1", sn.BurnRate, sn.BudgetRemaining)
	}
}

// TestSLOPrometheusExposition: a registered SLO set appears in the
// Prometheus text with its name even before any observation, and with
// labeled per-op samples after.
func TestSLOPrometheusExposition(t *testing.T) {
	r := obs.NewRegistry()
	s := r.MustSLOSet("layer_slo", obs.SLOConfig{})
	var empty bytes.Buffer
	if err := r.WritePrometheus(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "layer_slo") {
		t.Fatalf("empty SLO set dropped from exposition:\n%s", empty.String())
	}
	s.Op("get").Observe(obs.NowNS(), 0.001, false)
	s.Op("put").Observe(obs.NowNS(), 0.001, true)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`layer_slo_good_total{op="get"} 1`,
		`layer_slo_bad_total{op="put"} 1`,
		`layer_slo_burn_rate{op="put"}`,
		"# TYPE layer_slo_burn_rate gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSLOOpHandles: a handle resolved once keeps accounting into the same
// row across Define (reset in place, not replaced), and names past the
// 256-op bound all resolve to the one "_other" row.
func TestSLOOpHandles(t *testing.T) {
	s := obs.NewSLOSet(obs.SLOConfig{})
	get := s.Op("get")
	if s.Op("get") != get {
		t.Fatal("Op returned a second entry for the same name")
	}
	get.Observe(obs.NowNS(), 0.001, false)
	s.Define("get", obs.SLOConfig{LatencyTarget: 0.0005})
	get.Observe(obs.NowNS(), 0.001, false) // over the tightened target
	sn := s.Snapshot()[0]
	if sn.GoodTotal != 0 || sn.BadTotal != 1 || sn.LatencyTarget != 0.0005 {
		t.Fatalf("after Define: good/bad = %d/%d target %g, want 0/1 at 0.0005",
			sn.GoodTotal, sn.BadTotal, sn.LatencyTarget)
	}

	for i := 0; i < 300; i++ {
		s.Op(fmt.Sprintf("op%03d", i))
	}
	if s.Op("late-a") != s.Op("late-b") {
		t.Error("names past the bound did not share the overflow entry")
	}
	s.Op("late-a").Observe(obs.NowNS(), 0.001, false)
	snaps := s.Snapshot()
	if len(snaps) != 257 {
		t.Fatalf("%d rows, want 256 ops + _other", len(snaps))
	}
	for _, sn := range snaps {
		if sn.Op == "_other" && sn.GoodTotal != 1 {
			t.Errorf("_other good total = %d, want 1", sn.GoodTotal)
		}
	}
}
