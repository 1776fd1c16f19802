package poa_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/rts"
)

// withTracing arms the process-wide tracer for one test, restoring the
// disabled state (and clearing the ring) when it finishes. Tests in this
// package run sequentially, so the shared tracer sees one scenario at a time.
func withTracing(t *testing.T) {
	t.Helper()
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.SetEnabled(true)
	t.Cleanup(func() {
		obs.DefaultTracer.SetEnabled(false)
		obs.DefaultTracer.Reset()
	})
}

func spansNamed(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// swallowNEP silently discards the first `skip` frames sent through it —
// the deterministic "first request lost on the wire" a retry must survive.
type swallowNEP struct {
	nexus.Endpoint
	mu   sync.Mutex
	skip int
}

func (e *swallowNEP) Send(to nexus.Addr, data []byte) error { return e.SendV(to, data) }

func (e *swallowNEP) SendV(to nexus.Addr, bufs ...[]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.skip > 0 {
		e.skip--
		return nil
	}
	return e.Endpoint.SendV(to, bufs...)
}

// TestTraceRetryReusesTraceIDFreshSpanID pins the retry contract: a
// re-issued attempt stays inside the original invocation's trace (same
// TraceID, same stub root span) but gets a fresh per-attempt span ID, so a
// straggler frame of the superseded attempt can never masquerade as the new
// one.
func TestTraceRetryReusesTraceIDFreshSpanID(t *testing.T) {
	fab := nexus.NewInproc()
	newEP := func(name string) (nexus.Endpoint, error) { return fab.NewEndpoint(name), nil }
	fi := nexus.NewFaultInjector(1, nexus.FaultPlan{}) // clean plan; only the client wrapper drops
	ior, _, retire := startFaultedSingleServer(t, newEP, fi)

	cep := fab.NewEndpoint("trace-retry-client")
	orb := core.NewORB(core.NewRouter(&swallowNEP{Endpoint: cep, skip: 1}), nil, nil)
	b, err := orb.Bind(ior, probeIface())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(0.05)
	b.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 4, BaseBackoff: 0.002, MaxBackoff: 0.01, JitterSeed: 7})

	withTracing(t)
	vals, err := b.Invoke("probe", []any{int32(7)})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3.5 {
		t.Fatalf("probe = %v", vals[0])
	}
	retire() // POA drained: all server-side spans are recorded

	spans := obs.DefaultTracer.Spans()
	roots := spansNamed(spans, "stub.invoke")
	if len(roots) != 1 {
		t.Fatalf("stub.invoke spans = %d, want 1 (one invocation, however many attempts)", len(roots))
	}
	root := roots[0]
	sends := spansNamed(spans, "orb.send")
	resends := spansNamed(spans, "orb.resend")
	if len(sends) != 1 || len(resends) == 0 {
		t.Fatalf("orb.send = %d, orb.resend = %d; want 1 and >= 1", len(sends), len(resends))
	}
	attemptIDs := map[uint64]bool{sends[0].ID: true}
	for _, sp := range append(sends, resends...) {
		if sp.Trace != root.Trace {
			t.Fatalf("%s carries trace %x, want the invocation's %x", sp.Name, sp.Trace, root.Trace)
		}
		if sp.Parent != root.ID {
			t.Fatalf("%s parent = %x, want stub root %x", sp.Name, sp.Parent, root.ID)
		}
	}
	for _, sp := range resends {
		if attemptIDs[sp.ID] {
			t.Fatalf("resend reused span ID %x of an earlier attempt", sp.ID)
		}
		attemptIDs[sp.ID] = true
	}
	// The server only ever saw a resend (the first frame was swallowed), so
	// its decode span must be parented to a resend attempt, not the original.
	decodes := spansNamed(spans, "pgiop.decode")
	if len(decodes) == 0 {
		t.Fatal("server recorded no pgiop.decode span")
	}
	for _, d := range decodes {
		if d.Trace != root.Trace {
			t.Fatalf("server decode trace %x, want %x", d.Trace, root.Trace)
		}
		if d.Parent == sends[0].ID {
			t.Fatal("server decode parented to the swallowed first attempt")
		}
		if !attemptIDs[d.Parent] {
			t.Fatalf("server decode parent %x is not any attempt span", d.Parent)
		}
	}
}

// TestTraceTimeoutRecordsRootOnce: an invocation that dies on its deadline
// still closes its stub root span — exactly once, at sweep time.
func TestTraceTimeoutRecordsRootOnce(t *testing.T) {
	fab := nexus.NewInproc()
	sink := fab.NewEndpoint("trace-timeout-sink") // exists; nobody serves
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("trace-timeout-cli")), nil, nil)
	ior := core.IOR{Interface: "prober", Key: "probe-1", ServerSize: 1, Addrs: []string{string(sink.Addr())}}
	b, err := orb.Bind(ior, probeIface())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(0.03)

	withTracing(t)
	if _, err := b.Invoke("probe", []any{int32(1)}); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want deadline", err)
	}
	spans := obs.DefaultTracer.Spans()
	roots := spansNamed(spans, "stub.invoke")
	if len(roots) != 1 {
		t.Fatalf("stub.invoke spans = %d, want exactly 1", len(roots))
	}
	sends := spansNamed(spans, "orb.send")
	if len(sends) != 1 || sends[0].Trace != roots[0].Trace || sends[0].Parent != roots[0].ID {
		t.Fatalf("orb.send spans %+v do not nest under the root", sends)
	}
	if encs := spansNamed(spans, "pgiop.encode"); len(encs) != 1 || encs[0].Parent != sends[0].ID {
		t.Fatalf("pgiop.encode spans %+v do not nest under the send", encs)
	}
	if got := spansNamed(spans, "orb.resend"); len(got) != 0 {
		t.Fatalf("non-retryable invocation recorded %d resend spans", len(got))
	}
}

// TestTraceCancelRecordsRoot: withdrawing an invocation resolves it with
// ErrCancelled and closes its root span.
func TestTraceCancelRecordsRoot(t *testing.T) {
	fab := nexus.NewInproc()
	sink := fab.NewEndpoint("trace-cancel-sink")
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("trace-cancel-cli")), nil, nil)
	ior := core.IOR{Interface: "prober", Key: "probe-1", ServerSize: 1, Addrs: []string{string(sink.Addr())}}
	b, err := orb.Bind(ior, probeIface())
	if err != nil {
		t.Fatal(err)
	}

	withTracing(t)
	cell, err := b.InvokeNB("probe", []any{int32(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !orb.Cancel(cell) {
		t.Fatal("Cancel did not find the pending invocation")
	}
	if err := cell.Wait(); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if roots := spansNamed(obs.DefaultTracer.Spans(), "stub.invoke"); len(roots) != 1 {
		t.Fatalf("stub.invoke spans = %d, want 1", len(roots))
	}
}

// TestTraceLateReplyEmitsNoClientSpan: a reply that arrives after the
// deadline already resolved the invocation must be discarded without
// recording anything — the root span was closed at timeout, and a second
// stub span for the same invocation would corrupt the timeline.
func TestTraceLateReplyEmitsNoClientSpan(t *testing.T) {
	fab := nexus.NewInproc()
	ior, stop := startSlowServer(t, fab, 100*time.Millisecond)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("trace-late-cli")), nil, nil)
	b, err := orb.Bind(ior, probeIface())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(0.02)

	withTracing(t)
	if _, err := b.Invoke("probe", []any{int32(1)}); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want deadline (servant sleeps 5x longer)", err)
	}
	roots := spansNamed(obs.DefaultTracer.Spans(), "stub.invoke")
	if len(roots) != 1 {
		t.Fatalf("stub.invoke spans after timeout = %d, want 1", len(roots))
	}
	staleTrace := roots[0].Trace

	// The second invocation's pump processes the straggler reply to the
	// first (its request ID is gone from the pending table) before its own.
	b.SetDeadline(5)
	vals, err := b.Invoke("probe", []any{int32(4)})
	if err != nil || vals[0] != 2.0 {
		t.Fatalf("second invoke: %v, %v", vals, err)
	}
	spans := obs.DefaultTracer.Spans()
	if got := len(spansNamed(spans, "stub.invoke")); got != 2 {
		t.Fatalf("stub.invoke spans = %d, want 2 (timeout + success, none for the straggler)", got)
	}
	stale := 0
	for _, sp := range spans {
		if sp.Trace == staleTrace && sp.Layer == obs.LayerStub {
			stale++
		}
	}
	if stale != 1 {
		t.Fatalf("timed-out invocation has %d stub spans, want exactly the one closed at timeout", stale)
	}

	stop()
}

// TestTraceSPMDNesting is the acceptance trace: a 4-rank SPMD invocation
// whose spans — across every server rank — share the stub's TraceID and
// nest stub → ORB → pgiop → POA → rts.
func TestTraceSPMDNesting(t *testing.T) {
	const S = 4
	withTracing(t)
	runSPMDPair(t, S, 1, func(th rts.Thread, b *core.Binding) {
		x := dseq.New[float64](th, 64, dist.BlockTemplate(), dseq.Float64Codec{})
		for loc := range x.Local() {
			x.Local()[loc] = 1
		}
		y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		if _, err := b.Invoke("scale", []any{2.0, x, y}); err != nil {
			panic(err)
		}
	})

	spans := obs.DefaultTracer.Spans()
	roots := spansNamed(spans, "stub.invoke")
	if len(roots) != 1 {
		t.Fatalf("stub.invoke spans = %d, want 1", len(roots))
	}
	root := roots[0]
	byID := map[uint64]obs.Span{}
	for _, sp := range spans {
		if sp.Trace == root.Trace {
			byID[sp.ID] = sp
		}
	}

	// Every server rank decoded the request under the client's send span.
	sends := spansNamed(spans, "orb.send")
	if len(sends) != 1 || sends[0].Parent != root.ID {
		t.Fatalf("orb.send spans %+v do not nest under the stub root", sends)
	}
	decodes := spansNamed(spans, "pgiop.decode")
	ranks := map[int32]bool{}
	for _, d := range decodes {
		if d.Trace != root.Trace {
			t.Fatalf("rank %d decode trace %x, want %x", d.Rank, d.Trace, root.Trace)
		}
		if d.Parent != sends[0].ID {
			t.Fatalf("rank %d decode parent %x, want the wire span %x", d.Rank, d.Parent, sends[0].ID)
		}
		ranks[d.Rank] = true
	}
	if len(ranks) != S {
		t.Fatalf("decode spans from %d distinct ranks, want all %d", len(ranks), S)
	}

	// The full five-layer chain: every rts span walks up through poa and
	// pgiop to the client's orb send and stub root.
	wantChain := []string{obs.LayerRTS, obs.LayerPOA, obs.LayerPGIOP, obs.LayerORB, obs.LayerStub}
	rtsSpans := 0
	for _, sp := range spans {
		if sp.Trace != root.Trace || sp.Layer != obs.LayerRTS {
			continue
		}
		rtsSpans++
		cur, chain := sp, []string{}
		for {
			chain = append(chain, cur.Layer)
			if cur.Parent == 0 {
				break
			}
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s (rank %d) has dangling parent %x", cur.Name, cur.Rank, cur.Parent)
			}
			cur = parent
		}
		if len(chain) != len(wantChain) {
			t.Fatalf("rts span %s chain %v, want layers %v", sp.Name, chain, wantChain)
		}
		for i := range chain {
			if chain[i] != wantChain[i] {
				t.Fatalf("rts span %s chain %v, want layers %v", sp.Name, chain, wantChain)
			}
		}
	}
	if rtsSpans < S {
		t.Fatalf("rts spans in trace = %d, want at least one per rank (%d)", rtsSpans, S)
	}

	// poa.dispatch and poa.collect (the argument collection of the
	// distributed in) appear under every rank's decode.
	for _, name := range []string{"poa.dispatch", "poa.collect"} {
		got := spansNamed(spans, name)
		perRank := map[int32]bool{}
		for _, sp := range got {
			if sp.Trace == root.Trace {
				perRank[sp.Rank] = true
			}
		}
		if len(perRank) != S {
			t.Fatalf("%s spans from %d ranks, want %d", name, len(perRank), S)
		}
	}

	// Every thread is on the process's one wall clock, so the timeline is
	// one: a child span starts no earlier than its parent — a server rank's
	// decode no earlier than the client's send it nests under — and every
	// span of the trace starts within the stub root (a server span may end
	// after it: a rank reads its dispatch's end after sending). The one
	// exception is poa.agreement: the phase that carried the decision
	// precedes the decode it is recorded under.
	for _, sp := range byID {
		if parent, ok := byID[sp.Parent]; ok && sp.Start < parent.Start && sp.Name != "poa.agreement" {
			t.Errorf("%s (rank %d) starts %d ns before its parent %s (rank %d)", sp.Name, sp.Rank, parent.Start-sp.Start, parent.Name, parent.Rank)
		}
		if sp.Start < root.Start || sp.Start > root.End {
			t.Errorf("%s (rank %d) starts at %d, outside the stub root [%d, %d]", sp.Name, sp.Rank, sp.Start, root.Start, root.End)
		}
	}
}
