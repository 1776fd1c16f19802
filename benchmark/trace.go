package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"pardis/internal/nexus"
	"pardis/internal/poa"
)

// The traced pass times the program from outside: decorators around the
// public interfaces (a nexus.Endpoint handed to NewRouter, a poa.Servant,
// the caller's own loop) stamp entries and returns on one monotonic clock.
// Events stay in memory until the window closes; fold then cuts every
// operation into seven consecutive client→server→client segments, whose sum
// is the operation's latency by construction, and writes the spans out.

const (
	// eventCap bounds each event log. A full log stops recording; the fold
	// uses the operations recorded until then.
	eventCap = 1 << 18
	// spanFileOps bounds how many operations' spans go to the trace file.
	spanFileOps = 2000
	// clockReadsPerOp is how many times recording one round trip reads the
	// clock: a stamp at each of the six boundaries between the seven
	// segments (the caller's own two are read in the untraced pass too).
	clockReadsPerOp = 6
)

type eventKind uint8

const (
	evSend  eventKind = iota // t0 SendV entry, t1 SendV return (sampled: else 0)
	evRecv                   // t1 Recv/Poll return with a frame
	evServe                  // t0 servant entry, t1 servant return
	evCall                   // t0 caller's entry, t1 caller's return
)

// event is pointer-free so that logs can live outside the Go heap.
type event struct {
	t0, t1 int64  // ns since the tracer's epoch
	seq    uint32 // FIFO index of the frame on its (from, to) pair
	bytes  uint32
	peer   int16 // index into the endpoint's peer table
	kind   eventKind
}

// eventLog is a fixed-capacity append-only log, safe for concurrent add.
// It is mapped outside the Go heap: tens of megabytes of live heap would
// change how often the collector runs in the traced pass, and with it the
// very timings the pass is there to explain.
type eventLog struct {
	ev []event
	n  atomic.Int64
}

func newEventLog() *eventLog {
	size := eventCap * int(unsafe.Sizeof(event{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return &eventLog{ev: make([]event, eventCap)}
	}
	return &eventLog{ev: unsafe.Slice((*event)(unsafe.Pointer(&mem[0])), eventCap)}
}

// add appends e and returns where it went, or nil when the log is full.
func (l *eventLog) add(e event) *event {
	if i := l.n.Add(1) - 1; i < eventCap {
		l.ev[i] = e
		return &l.ev[i]
	}
	return nil
}

// events returns what was recorded, ordered by key.
func (l *eventLog) events(kind eventKind, key func(*event) int64) []event {
	n := min(l.n.Load(), eventCap)
	out := make([]event, 0, n)
	for i := range l.ev[:n] {
		if l.ev[i].kind == kind {
			out = append(out, l.ev[i])
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return key(&out[a]) < key(&out[b]) })
	return out
}

func byT0(e *event) int64 { return e.t0 }
func byT1(e *event) int64 { return e.t1 }

type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu       sync.Mutex
	eps      []*tracedEP
	servants map[int]*eventLog // by server rank
	calls    map[int]*eventLog // by caller rank

	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), servants: map[int]*eventLog{}, calls: map[int]*eventLog{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// callLog returns rank's caller log; set-up path, not for the window.
func (t *tracer) callLog(rank int) *eventLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.calls[rank]
	if l == nil {
		l = newEventLog()
		t.calls[rank] = l
	}
	return l
}

// --- endpoint decorator -------------------------------------------------------

// tracedEP wraps an endpoint and forwards every capability of what it
// wraps. It numbers the frames of each (from, to) pair on both sides —
// always, so the two ends stay in step whenever recording starts — which
// lets the fold match a send to its receive without parsing the wire.
type tracedEP struct {
	inner nexus.Endpoint
	tr    *tracer
	name  string
	log   *eventLog

	// frames and wireBytes count every frame sent while the tracer is on,
	// whether or not its event still fitted the log.
	frames    atomic.Int64
	wireBytes atomic.Int64

	// peers is copy-on-write: the send and receive paths read it without a
	// lock, and the rare first frame to or from a new address republishes
	// it under mu. Entries are shared between copies.
	mu    sync.Mutex
	peers atomic.Pointer[[]*tracedPeer]
}

type tracedPeer struct {
	addr       nexus.Addr
	sent, rcvd atomic.Uint32
}

func (t *tracer) wrapEndpoint(ep nexus.Endpoint, name string) nexus.Endpoint {
	w := &tracedEP{inner: ep, tr: t, name: name, log: newEventLog()}
	w.peers.Store(&[]*tracedPeer{})
	t.mu.Lock()
	t.eps = append(t.eps, w)
	t.mu.Unlock()
	return w
}

// peer returns a's entry and its index in the table.
func (e *tracedEP) peer(a nexus.Addr) (*tracedPeer, int) {
	for i, p := range *e.peers.Load() {
		if p.addr == a {
			return p, i
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.peers.Load()
	for i, p := range old {
		if p.addr == a {
			return p, i
		}
	}
	p := &tracedPeer{addr: a}
	grown := append(append([]*tracedPeer{}, old...), p)
	e.peers.Store(&grown)
	return p, len(old)
}

func (e *tracedEP) Addr() nexus.Addr { return e.inner.Addr() }
func (e *tracedEP) Close() error     { return e.inner.Close() }

// ConcurrentSendSafe forwards nexus.ConcurrentSender.
func (e *tracedEP) ConcurrentSendSafe() bool {
	cs, ok := e.inner.(nexus.ConcurrentSender)
	return ok && cs.ConcurrentSendSafe()
}

// SetRecvNotify forwards nexus.RecvNotifier; without it the POA would
// silently fall back to sleep-polling.
func (e *tracedEP) SetRecvNotify(fn func()) bool {
	rn, ok := e.inner.(nexus.RecvNotifier)
	return ok && rn.SetRecvNotify(fn)
}

// sendvSample is how many sends share one exit stamp. Reading the clock is
// most of what recording costs (45 ns a read on the box this was written on,
// against a 5 us round trip), the segments need only a send's entry, and
// nexus.sendv_us is as good from every eighth.
const sendvSample = 8

// send numbers an outgoing frame of n bytes, records it and passes it on.
// Everything but the sampled exit stamp happens before the inner call: that
// call readies the receiver, and the in-process round trip is a race between
// the sender reaching its own receive and the woken peer, so recording adds
// nothing to the sender's side of it.
func (e *tracedEP) send(to nexus.Addr, n int, inner func() error) error {
	p, peer := e.peer(to)
	seq := p.sent.Add(1) - 1
	if !e.tr.on.Load() {
		return inner()
	}
	e.frames.Add(1)
	e.wireBytes.Add(int64(n))
	ev := e.log.add(event{kind: evSend, t0: e.tr.now(), seq: seq, bytes: uint32(n), peer: int16(peer)})
	err := inner()
	if ev != nil && seq%sendvSample == 0 {
		ev.t1 = e.tr.now()
	}
	return err
}

func (e *tracedEP) Send(to nexus.Addr, data []byte) error {
	return e.send(to, len(data), func() error { return e.inner.Send(to, data) })
}

func (e *tracedEP) SendV(to nexus.Addr, bufs ...[]byte) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return e.send(to, n, func() error { return e.inner.SendV(to, bufs...) })
}

func (e *tracedEP) received(fr nexus.Frame) {
	p, peer := e.peer(fr.From)
	seq := p.rcvd.Add(1) - 1
	if e.tr.on.Load() {
		e.log.add(event{kind: evRecv, t1: e.tr.now(), seq: seq, bytes: uint32(len(fr.Data)), peer: int16(peer)})
	}
}

func (e *tracedEP) Recv() (nexus.Frame, error) {
	fr, err := e.inner.Recv()
	if err == nil {
		e.received(fr)
	}
	return fr, err
}

func (e *tracedEP) Poll() (nexus.Frame, bool, error) {
	fr, ok, err := e.inner.Poll()
	if ok && err == nil {
		e.received(fr)
	}
	return fr, ok, err
}

// --- servant decorator --------------------------------------------------------

// tracedServant numbers its invocations — always, like the endpoints their
// frames — so that one SPMD invocation can be found on every rank even when
// a rank lags the others by many invocations as recording starts.
type tracedServant struct {
	inner poa.Servant
	tr    *tracer
	log   *eventLog
	calls atomic.Uint32
}

func (t *tracer) wrapServant(s poa.Servant, rank int) poa.Servant {
	l := newEventLog()
	t.mu.Lock()
	t.servants[rank] = l
	t.mu.Unlock()
	return &tracedServant{inner: s, tr: t, log: l}
}

func (s *tracedServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	seq := s.calls.Add(1)
	if !s.tr.on.Load() {
		return s.inner.Invoke(ctx, op, in)
	}
	t0 := s.tr.now()
	ret, outs, err := s.inner.Invoke(ctx, op, in)
	s.log.add(event{kind: evServe, t0: t0, t1: s.tr.now(), seq: seq})
	return ret, outs, err
}

// --- fold ---------------------------------------------------------------------

// span is one record of the trace file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// segmentNames are the seven consecutive pieces of one operation, in order;
// each is named after the layer whose self time it is.
var segmentNames = [7]string{
	"core.req_marshal_us",   // call entry → first client SendV entry
	"nexus.req_transit_us",  // → server Recv/Poll return of that frame
	"poa.pre_dispatch_us",   // → servant entry
	"poa.servant_us",        // → servant return
	"poa.post_dispatch_us",  // → next server SendV entry
	"nexus.rep_transit_us",  // → client Recv/Poll return of the last frame
	"core.rep_unmarshal_us", // → call return
}

type frameKey struct {
	from, to int // endpoint indices
	seq      uint32
}

// fold turns the recorded events into the span-sourced layer metrics.
func (t *tracer) fold(w *workload, res *repResult) {
	v := res.Values
	if res.Ops > 0 {
		var frames, wire float64
		for _, e := range t.eps {
			frames += float64(e.frames.Load())
			wire += float64(e.wireBytes.Load())
		}
		v["nexus.frames_per_op"] = frames / float64(res.Ops)
		v["nexus.wire_bytes_per_op"] = wire / float64(res.Ops)
		v["nexus.wire_over_payload"] = wire / float64(res.Ops) / float64(w.payload)
	}
	epIndex := map[string]int{}
	byAddr := map[nexus.Addr]int{}
	for i, e := range t.eps {
		epIndex[e.name] = i
		byAddr[e.Addr()] = i
	}
	// global resolves an endpoint's local peer number to an endpoint index.
	global := func(e *tracedEP, peer int16) int {
		if i, ok := byAddr[(*e.peers.Load())[peer].addr]; ok {
			return i
		}
		return -1
	}
	recvAt := map[frameKey]int64{}
	var sendv hist
	for i, e := range t.eps {
		for _, r := range e.log.events(evRecv, byT1) {
			recvAt[frameKey{global(e, r.peer), i, r.seq}] = r.t1
		}
		for _, s := range e.log.events(evSend, byT0) {
			if s.t1 != 0 {
				sendv.add(s.t1 - s.t0)
			}
		}
	}
	if sendv.n > 0 {
		v["nexus.sendv_us"] = sendv.quantile(0.5) / 1e3
	}
	client, okC := epIndex["client-0"]
	server, okS := epIndex["server-0"]
	serves := t.servants[0]
	if !okC || !okS || serves == nil {
		// No ORB in this workload (redist_cyclic): only the caller's
		// spans exist, and they are the operation itself.
		t.rootSpans()
		return
	}
	if w.depth > 0 {
		t.foldPipelined(w, epIndex, recvAt, global, v)
		return
	}
	t.foldLockstep(client, server, recvAt, global, v)
}

// after returns the first index at or beyond i whose key is >= t.
func after(ev []event, i int, key func(*event) int64, t int64) int {
	for i < len(ev) && key(&ev[i]) < t {
		i++
	}
	return i
}

// foldLockstep cuts each of rank 0's operations into the seven segments.
func (t *tracer) foldLockstep(client, server int, recvAt map[frameKey]int64, global func(*tracedEP, int16) int, v map[string]float64) {
	calls := t.calls[0].events(evCall, byT0)
	cSends := t.eps[client].log.events(evSend, byT0)
	cRecvs := t.eps[client].log.events(evRecv, byT1)
	sSends := t.eps[server].log.events(evSend, byT0)
	serve0 := t.servants[0].events(evServe, byT0)
	// SPMD dispatch order is identical on every rank, so the i-th servant
	// call of each rank is the same invocation.
	var entry1 map[uint32]int64
	if l := t.servants[1]; l != nil {
		entry1 = map[uint32]int64{}
		for _, s := range l.events(evServe, byT0) {
			entry1[s.seq] = s.t0
		}
	}
	var seg [7]hist
	var e2e, skew hist
	ci, ri, si, vi := 0, 0, 0, 0
	for op, c := range calls {
		var at [8]int64
		at[0], at[7] = c.t0, c.t1
		if ci = after(cSends, ci, byT0, c.t0); ci == len(cSends) || cSends[ci].t0 > c.t1 {
			continue
		}
		req := cSends[ci]
		at[1] = req.t0
		var ok bool
		if at[2], ok = recvAt[frameKey{client, global(t.eps[client], req.peer), req.seq}]; !ok {
			continue
		}
		if vi = after(serve0, vi, byT0, at[2]); vi == len(serve0) {
			continue
		}
		at[3], at[4] = serve0[vi].t0, serve0[vi].t1
		if si = after(sSends, si, byT0, at[4]); si == len(sSends) {
			continue
		}
		at[5] = sSends[si].t0
		// The frame that completes the call is the last one the client
		// received inside it.
		ri = after(cRecvs, ri, byT1, at[5])
		for ri+1 < len(cRecvs) && cRecvs[ri+1].t1 <= c.t1 {
			ri++
		}
		if ri == len(cRecvs) {
			continue
		}
		at[6] = cRecvs[ri].t1
		monotone := true
		for i := 1; i < 8; i++ {
			monotone = monotone && at[i] >= at[i-1]
		}
		if !monotone {
			continue
		}
		for i := range seg {
			seg[i].add(at[i+1] - at[i])
		}
		e2e.add(c.t1 - c.t0)
		if other, ok := entry1[serve0[vi].seq]; ok {
			d := other - serve0[vi].t0
			skew.add(max(d, -d))
		}
		if op < spanFileOps {
			root := t.addSpan(0, op, "call", c.t0, c.t1)
			for i, name := range segmentNames {
				t.addSpan(root, op, name[:len(name)-len("_us")], at[i], at[i+1])
			}
			if req.t1 != 0 {
				t.addSpan(root, op, "nexus.sendv", req.t0, req.t1)
			}
		}
	}
	if e2e.n == 0 {
		return
	}
	sum := 0.0
	for i, name := range segmentNames {
		med := seg[i].quantile(0.5)
		v[name] = med / 1e3
		sum += med
	}
	v["trace.folded_ops"] = float64(e2e.n)
	v["trace.sum_over_e2e"] = sum / e2e.quantile(0.5)
	switch {
	case entry1 == nil:
		v["poa.rank_skew_us"] = 0 // one server thread: no skew by construction
	case skew.n > 0:
		v["poa.rank_skew_us"] = skew.quantile(0.5) / 1e3
	}
}

// foldPipelined reports the request direction only: with a dispatch pool
// replies may overtake one another, so nothing after the servant is matched.
func (t *tracer) foldPipelined(w *workload, epIndex map[string]int, recvAt map[frameKey]int64, global func(*tracedEP, int16) int, v map[string]float64) {
	var marshal, transit, pre, servant hist
	op := 0
	for r := 0; r < w.ranks; r++ {
		epi, ok := epIndex[fmt.Sprintf("client-%d", r)]
		if !ok || t.calls[r] == nil {
			continue
		}
		ep := t.eps[epi]
		sends := ep.log.events(evSend, byT0)
		si := 0
		// Each InvokeNB sends exactly one frame, from inside the call.
		for _, c := range t.calls[r].events(evCall, byT0) {
			if si = after(sends, si, byT0, c.t0); si == len(sends) || sends[si].t0 > c.t1 {
				continue
			}
			s := sends[si]
			marshal.add(s.t0 - c.t0)
			at, ok := recvAt[frameKey{epi, global(ep, s.peer), s.seq}]
			if ok && at >= s.t0 {
				transit.add(at - s.t0)
			}
			if op < spanFileOps {
				root := t.addSpan(0, op, "issue", c.t0, c.t1)
				t.addSpan(root, op, "core.req_marshal", c.t0, s.t0)
				if ok {
					t.addSpan(root, op, "nexus.req_transit", s.t0, at)
				}
				op++
			}
		}
	}
	// The pool's queue is FIFO, so the k-th request the server received is
	// (to within two workers dequeuing at once) the k-th servant entry.
	recvs := t.eps[epIndex["server-0"]].log.events(evRecv, byT1)
	serves := t.servants[0].events(evServe, byT0)
	for i := range min(len(recvs), len(serves)) {
		if d := serves[i].t0 - recvs[i].t1; d >= 0 {
			pre.add(d)
		}
		servant.add(serves[i].t1 - serves[i].t0)
	}
	for name, h := range map[string]*hist{
		"core.req_marshal_us": &marshal, "nexus.req_transit_us": &transit,
		"poa.pre_dispatch_us": &pre, "poa.servant_us": &servant,
	} {
		if h.n > 0 {
			v[name] = h.quantile(0.5) / 1e3
		}
	}
	v["trace.folded_ops"] = float64(marshal.n)
	v["poa.rank_skew_us"] = 0 // one server thread: no skew by construction
}

// rootSpans records the caller's spans alone.
func (t *tracer) rootSpans() {
	if l := t.calls[0]; l != nil {
		for op, c := range l.events(evCall, byT0) {
			if op == spanFileOps {
				break
			}
			t.addSpan(0, op, "call", c.t0, c.t1)
		}
	}
}

func (t *tracer) addSpan(parent, op int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// writeSpans writes the trace file next to the benchmark's other output.
func (t *tracer) writeSpans(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, "monotonic ns since the child's tracer was created", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
