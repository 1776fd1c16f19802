package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, in nesting order. Every span names the protocol layer that
// produced it, which is what lets a merged timeline show one invocation
// descending stub → ORB → pgiop → POA → rts across address spaces.
const (
	LayerStub  = "stub"
	LayerORB   = "orb"
	LayerPGIOP = "pgiop"
	LayerPOA   = "poa"
	LayerRTS   = "rts"
)

// Span is one recorded interval of one invocation. Trace identifies the
// invocation end to end (allocated at the stub, carried on the wire, shared
// by every rank the invocation touches); ID identifies this span; Parent is
// the enclosing span — possibly one recorded in another address space, since
// the pgiop Request carries the parent span ID across the wire.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Layer  string // one of the Layer* constants
	Name   string // e.g. "stub.invoke", "poa.dispatch"
	Op     string // operation name, when known (kept separate so Name stays a constant — no per-span concatenation)
	Rank   int32  // computing-thread rank that recorded the span
	Start  int64  // nanoseconds on the recording thread's clock (see WriteChromeTrace)
	End    int64
}

// Tracer records spans in one of two modes. The default retain-all ring
// keeps the first max spans and drops (and counts) the rest — simple,
// bounded, and exactly what unit tests and short bench runs want. Tail
// mode (EnableRecorder) replaces it with per-trace buffering and
// retention decided at trace completion; see recorder.go. Either way the
// zero-cost path is the disabled one: every instrumentation site checks
// Enabled() — a single atomic load — before computing timestamps or
// allocating IDs, so a built binary with tracing off pays no measurable
// overhead (the CI overhead gate asserts ≤5% on the ORB round trip).
//
// Recording is mutex-guarded: spans arrive from many goroutines (transfer
// workers, dispatch pools, every rank of an in-process SPMD program) and a
// bounded slice under a short lock beats per-CPU machinery at this volume.
type Tracer struct {
	enabled atomic.Bool
	tail    atomic.Bool // recorder (tail-sampling) mode active

	mu    sync.Mutex
	spans []Span
	max   int
	rec   *recorder // non-nil iff tail mode

	drops    Counter // spans discarded (ring full / trace buffer full / tombstoned trace)
	retains  Counter // traces kept by the tail-based retention decision
	recycles Counter // trace buffers returned to the pool (boring + evicted)
}

// defaultSpanCap bounds the default tracer's memory (~6 MiB at 96 B/span).
const defaultSpanCap = 1 << 16

// NewTracer creates a disabled tracer retaining at most cap spans
// (cap <= 0 selects the package default).
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = defaultSpanCap
	}
	return &Tracer{max: cap}
}

// DefaultTracer is the process-wide tracer every PARDIS layer records into,
// the tracing analog of Default. Disabled until SetEnabled(true).
var DefaultTracer = NewTracer(0)

// The default tracer's bookkeeping is a first-class part of the metrics
// surface: a scrape must be able to tell "nothing interesting happened"
// from "the recorder dropped the evidence".
func init() {
	for name, c := range map[string]*Counter{
		"trace_spans_dropped_total": &DefaultTracer.drops,
		"trace_retained_total":      &DefaultTracer.retains,
		"trace_recycled_total":      &DefaultTracer.recycles,
	} {
		if err := Default.Register(name, c); err != nil {
			panic(err)
		}
	}
}

// Enabled reports whether spans are being recorded — the guard every
// instrumentation site checks first.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetEnabled turns recording on or off. Toggling does not clear spans.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// idCounter seeds span/trace IDs: random per process (so traces from
// separate processes merged into one timeline do not collide), sequential
// after that (so allocation is one atomic add).
var idCounter atomic.Uint64

func init() { idCounter.Store(rand.Uint64() | 1) }

// NewID allocates a process-unique, nonzero trace or span ID.
func NewID() uint64 {
	id := idCounter.Add(1)
	if id == 0 { // wrapped: astronomically unlikely, but zero means "no trace"
		id = idCounter.Add(1)
	}
	return id
}

// epoch anchors NowNS. Readings are only compared and subtracted, so any
// process-local instant will do (and Since is the fast monotonic path).
var epoch = time.Now()

// NowNS is the process's one wall clock, in nanoseconds: every wall-clock
// thread reads it (nexus.Waiter), so their spans line up.
func NowNS() int64 { return int64(time.Since(epoch)) }

// Record appends one completed span. In ring mode a full ring drops (and
// counts) the span — tracing must never block or grow without bound. In
// tail mode the span is buffered under its trace and the buffer's fate is
// decided when the trace completes.
func (t *Tracer) Record(sp Span) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	if r := t.rec; r != nil {
		r.record(t, sp)
		t.mu.Unlock()
		return
	}
	if len(t.spans) >= t.max {
		t.mu.Unlock()
		t.drops.Inc()
		return
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans. In tail mode that is the
// retained traces' spans followed by whatever is still buffering live.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec != nil {
		return t.rec.tailSpans()
	}
	return append([]Span(nil), t.spans...)
}

// Dropped reports how many spans were discarded (full ring, full trace
// buffer, or a late span of an already-recycled trace).
func (t *Tracer) Dropped() uint64 { return t.drops.Load() }

// Reset discards all recorded state — ring spans or recorder buffers — and
// zeroes the counters. The recorder's buffer pool survives a reset.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	if t.rec != nil {
		t.rec.reset()
	}
	t.mu.Unlock()
	t.drops.Store(0)
	t.retains.Store(0)
	t.recycles.Store(0)
}

// chromeEvent is one Chrome trace event: "M" metadata naming lanes, "X"
// complete spans, "s"/"f" flow arrows. The about://tracing and Perfetto
// UIs group by pid then tid; we map rank → pid and layer → tid so one
// invocation reads top-to-bottom as stub → orb → pgiop → poa → rts within
// each rank's lane.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int32          `json:"pid"`
	TID  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"` // flow-event binding
	BP   string         `json:"bp,omitempty"` // flow binding point ("e")
	Args map[string]any `json:"args,omitempty"`
}

// layerTID orders layer lanes within a rank's process group.
func layerTID(layer string) int {
	switch layer {
	case LayerStub:
		return 1
	case LayerORB:
		return 2
	case LayerPGIOP:
		return 3
	case LayerPOA:
		return 4
	case LayerRTS:
		return 5
	}
	return 9
}

// layerLane names a tid lane for the thread_name metadata event.
func layerLane(layer string) string {
	switch layer {
	case LayerStub, LayerORB, LayerPGIOP, LayerPOA, LayerRTS:
		return layer
	}
	return "other"
}

// WriteChromeTrace emits every recorded span as a Chrome trace-event JSON
// document ({"traceEvents": [...]}), loadable in Perfetto / chrome://tracing.
// Metadata events come first so lanes carry stable names ("rank N" per
// process group, the layer name per lane) instead of bare pids/tids; span
// and trace IDs plus the recording rank travel in args so a timeline can
// be filtered to one invocation; and whenever a span's parent was recorded
// by a different rank, a flow arrow ("s"→"f") stitches the hop, so one
// failover or SPMD fan-out reads as a single connected timeline.
// otherData.clock names the clock the timestamps are on.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()

	type lane struct {
		rank int32
		tid  int
	}
	ranks := map[int32]bool{}
	lanes := map[lane]string{}
	byID := make(map[uint64]Span, len(spans))
	for _, sp := range spans {
		ranks[sp.Rank] = true
		lanes[lane{sp.Rank, layerTID(sp.Layer)}] = layerLane(sp.Layer)
		byID[sp.ID] = sp
	}
	rankList := make([]int32, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Slice(rankList, func(i, j int) bool { return rankList[i] < rankList[j] })

	events := make([]chromeEvent, 0, len(spans)+2*len(lanes))
	for _, r := range rankList {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
		for tid := 1; tid <= 9; tid++ {
			if name, ok := lanes[lane{r, tid}]; ok {
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", PID: r, TID: tid,
					Args: map[string]any{"name": name},
				})
			}
		}
	}
	for _, sp := range spans {
		name := sp.Name
		if sp.Op != "" {
			name = sp.Name + " " + sp.Op
		}
		events = append(events, chromeEvent{
			Name: name,
			Cat:  sp.Layer,
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.End-sp.Start) / 1e3,
			PID:  sp.Rank,
			TID:  layerTID(sp.Layer),
			Args: map[string]any{
				"trace":  sp.Trace,
				"span":   sp.ID,
				"parent": sp.Parent,
				"rank":   sp.Rank,
			},
		})
	}
	// Cross-rank flow arrows: one per span whose parent lives in another
	// rank's lane, bound to the child span's ID.
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok || parent.Rank == sp.Rank {
			continue
		}
		events = append(events,
			chromeEvent{
				Name: "hop", Cat: "flow", Ph: "s", ID: sp.ID,
				TS: float64(parent.Start) / 1e3, PID: parent.Rank,
				TID: layerTID(parent.Layer),
			},
			chromeEvent{
				Name: "hop", Cat: "flow", Ph: "f", BP: "e", ID: sp.ID,
				TS: float64(sp.Start) / 1e3, PID: sp.Rank,
				TID: layerTID(sp.Layer),
			})
	}
	clock := map[string]string{"clock": "recording thread's: virtual on a simulated thread, else the process's wall clock"}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": clock}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
