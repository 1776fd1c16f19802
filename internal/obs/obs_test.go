package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pardis/internal/obs"
)

func TestCounterGauge(t *testing.T) {
	var c obs.Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Store(7)
	if got := c.Load(); got != 7 {
		t.Fatalf("after Store: %d, want 7", got)
	}

	var g obs.Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h obs.Histogram
	// 90 fast observations (~1µs) and 10 slow (~1ms): p50 lands in the
	// fast bucket, p95/p99 in the slow one. Buckets are powers of two in
	// ns, so bounds are factor-of-two estimates.
	for i := 0; i < 90; i++ {
		h.Observe(1e-6)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1e-3)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 90*1e-6 + 10*1e-3; s.Sum < want*0.99 || s.Sum > want*1.01 {
		t.Fatalf("sum = %g, want about %g", s.Sum, want)
	}
	if s.P50 < 1e-6 || s.P50 > 4e-6 {
		t.Fatalf("p50 = %g, want about 1µs (bucket bound ≤ 2x)", s.P50)
	}
	if s.P95 < 1e-3 || s.P95 > 4e-3 {
		t.Fatalf("p95 = %g, want about 1ms", s.P95)
	}
	if s.P99 < s.P95 {
		t.Fatalf("p99 = %g < p95 = %g", s.P99, s.P95)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h obs.Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-6)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestCheckName(t *testing.T) {
	for _, good := range []string{"a", "_x", "orb_requests_total", "p99_ns"} {
		if err := obs.CheckName(good); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", good, err)
		}
	}
	for _, bad := range []string{"", "9lives", "camelCase", "has-dash", "has space", "ünïcode"} {
		if err := obs.CheckName(bad); err == nil {
			t.Errorf("CheckName(%q) = nil, want error", bad)
		}
	}
}

func TestRegistryRejects(t *testing.T) {
	r := obs.NewRegistry()
	r.MustCounter("dup")
	if err := r.Register("dup", &obs.Counter{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register("Bad-Name", &obs.Counter{}); err == nil {
		t.Fatal("malformed name accepted")
	}
	if err := r.Register("wrong_kind", 42); err == nil {
		t.Fatal("unsupported metric kind accepted")
	}
}

func TestRegistryExposition(t *testing.T) {
	r := obs.NewRegistry()
	c := r.MustCounter("reqs_total")
	c.Add(5)
	g := r.MustGauge("pool_depth")
	g.Set(2)
	r.MustFunc("cache_hit_rate", func() float64 { return 0.75 })
	h := r.MustHistogram("latency_seconds")
	h.Observe(1e-3)

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE reqs_total counter", "reqs_total 5",
		"# TYPE pool_depth gauge", "pool_depth 2",
		"cache_hit_rate 0.75",
		"# TYPE latency_seconds summary",
		`latency_seconds{quantile="0.99"}`,
		"latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, js.String())
	}
	if doc["reqs_total"] != float64(5) {
		t.Fatalf("json reqs_total = %v, want 5", doc["reqs_total"])
	}
	hist, ok := doc["latency_seconds"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Fatalf("json latency_seconds = %v, want histogram object with count 1", doc["latency_seconds"])
	}
}

// TestDefaultRegistryNames is the metric-name hygiene gate the CI lane
// invokes: every metric the PARDIS packages registered at init must be
// well-formed (Register enforces uniqueness already, so reaching here with
// no panic covers that half).
func TestDefaultRegistryNames(t *testing.T) {
	names := obs.Default.Names()
	seen := map[string]bool{}
	for _, n := range names {
		if err := obs.CheckName(n); err != nil {
			t.Errorf("registered metric has malformed name: %v", err)
		}
		if seen[n] {
			t.Errorf("metric %q appears twice in registration order", n)
		}
		seen[n] = true
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := obs.NewTracer(16)
	tr.Record(obs.Span{Trace: 1, ID: 2, Name: "x"})
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(got))
	}
}

func TestTracerRecordAndBound(t *testing.T) {
	tr := obs.NewTracer(4)
	tr.SetEnabled(true)
	for i := 0; i < 6; i++ {
		tr.Record(obs.Span{Trace: 1, ID: uint64(i + 1), Name: "s", Layer: obs.LayerORB})
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("ring held %d spans, want 4", got)
	}
	if d := tr.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear spans and drop count")
	}
}

func TestNewIDUniqueNonzero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := obs.NewID()
		if id == 0 {
			t.Fatal("NewID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewID repeated %d", id)
		}
		seen[id] = true
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := obs.NewTracer(16)
	tr.SetEnabled(true)
	// Two ranks, so the export must label both process groups and stitch
	// the cross-rank parent→child hop with a flow arrow.
	tr.Record(obs.Span{Trace: 7, ID: 1, Parent: 0, Layer: obs.LayerStub, Name: "stub.invoke", Op: "scale", Rank: 0, Start: 1000, End: 9000})
	tr.Record(obs.Span{Trace: 7, ID: 2, Parent: 1, Layer: obs.LayerORB, Name: "orb.send", Rank: 0, Start: 2000, End: 3000})
	tr.Record(obs.Span{Trace: 7, ID: 3, Parent: 1, Layer: obs.LayerPOA, Name: "poa.dispatch", Op: "scale", Rank: 1, Start: 4000, End: 8000})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int32          `json:"pid"`
		TID  int            `json:"tid"`
		ID   uint64         `json:"id"`
		Args map[string]any `json:"args"`
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, buf.String())
	}

	var spans, meta, flows []event
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans = append(spans, ev)
		case "M":
			meta = append(meta, ev)
		case "s", "f":
			flows = append(flows, ev)
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("%d span events, want 3", len(spans))
	}
	ev := spans[0]
	if ev.Name != "stub.invoke scale" || ev.TS != 1.0 || ev.Dur != 8.0 {
		t.Fatalf("span 0 = %+v, want stub.invoke scale ts=1 dur=8", ev)
	}
	if ev.Args["trace"] != float64(7) || ev.Args["rank"] != float64(0) {
		t.Fatalf("span 0 args = %v, want trace=7 rank=0", ev.Args)
	}

	// Stable lane names: a process_name per rank and a thread_name per
	// (rank, layer) lane.
	names := map[string]bool{}
	for _, m := range meta {
		if v, ok := m.Args["name"].(string); ok {
			names[fmt.Sprintf("%s/%d=%s", m.Name, m.PID, v)] = true
		}
	}
	for _, want := range []string{
		"process_name/0=rank 0", "process_name/1=rank 1",
		"thread_name/0=stub", "thread_name/0=orb", "thread_name/1=poa",
	} {
		if !names[want] {
			t.Errorf("metadata missing %q (have %v)", want, names)
		}
	}

	// The rank-0 → rank-1 hop must carry exactly one flow arrow pair bound
	// to the child span's ID.
	if len(flows) != 2 {
		t.Fatalf("%d flow events, want 2 (s+f)", len(flows))
	}
	for _, f := range flows {
		if f.ID != 3 {
			t.Errorf("flow event bound to id %d, want child span 3", f.ID)
		}
	}
}
