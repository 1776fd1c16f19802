package poa_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// The dispatch loop takes a request from the transport when it can dispatch
// it (POA.take), so the backlog waits in the endpoint's inbox. These tests
// pin what the eager drain used to give implicitly and the lazy take has to
// give explicitly. None of them sleeps but one: requests are known to be in
// the server's inbox because an in-process Send is a synchronous push, or —
// over TCP — because a later frame of the same connection has been received.
// TestAdmissionSeesEveryArrivalInPlace needs a server that reads its
// connection in place, which a probe channel beside it would stop, so it
// gives loopback a moment to deliver what its caller has written.

// gatedServant parks call x (its argument) until gates[x] is closed; calls
// without a gate return at once. entered gets each invocation's argument as
// it starts, so it is also the order of service.
type gatedServant struct {
	gates   map[int32]chan struct{}
	entered chan int32
	served  atomic.Int64
}

func newGatedServant(parked ...int32) *gatedServant {
	s := &gatedServant{gates: map[int32]chan struct{}{}, entered: make(chan int32, 256)}
	for _, x := range parked {
		s.gates[x] = make(chan struct{})
	}
	return s
}

func (s *gatedServant) Invoke(_ *poa.Context, _ string, in []any) (any, []any, error) {
	x := in[0].(int32)
	s.entered <- x
	if g := s.gates[x]; g != nil {
		<-g
	}
	s.served.Add(1)
	return x, nil, nil
}

// waitEntered returns the argument of the next invocation to start, failing
// the test if none does — the bound is a failure report, not a pacing sleep.
func (s *gatedServant) waitEntered(t *testing.T) int32 {
	t.Helper()
	select {
	case x := <-s.entered:
		return x
	case <-time.After(10 * time.Second):
		t.Fatal("no further invocation reached the servant")
		return 0
	}
}

// serveGated runs a one-thread server for s on ep, configured by configure
// before it starts polling. It returns the reference, the adapter (for its
// goroutine-safe accessors only) and a function that waits for ImplIsReady
// to return.
func serveGated(t *testing.T, ep nexus.Endpoint, s poa.Servant, configure func(*poa.POA)) (core.IOR, *poa.POA, func()) {
	t.Helper()
	type started struct {
		ior core.IOR
		p   *poa.POA
	}
	ch := make(chan started, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := poa.New(rts.NewChanGroup("take-srv", 1).Thread(0), core.NewRouter(ep), nil)
		p.PollInterval = 50e-6
		ior, err := p.RegisterSingle("take-1", admissionIface(), s)
		if err != nil {
			t.Error(err)
			close(ch)
			return
		}
		if configure != nil {
			configure(p)
		}
		ch <- started{ior, p}
		p.ImplIsReady()
	}()
	st, ok := <-ch
	if !ok {
		t.FailNow()
	}
	return st.ior, st.p, func() {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ImplIsReady did not return")
		}
	}
}

// pipeline issues one non-blocking "work" call per argument.
func pipeline(t *testing.T, b *core.Binding, xs ...int32) []*future.Cell {
	t.Helper()
	cells := make([]*future.Cell, len(xs))
	for i, x := range xs {
		c, err := b.InvokeNB("work", []any{x})
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = c
	}
	return cells
}

// counterValue reads a counter of the process-wide registry by name.
func counterValue(name string) (n uint64) {
	obs.Default.Each(func(nm string, m any) {
		if c, ok := m.(*obs.Counter); ok && nm == name {
			n = c.Load()
		}
	})
	return n
}

// TestDeferredReplyDoesNotWaitForSibling: a serial server answers call 0
// with call 1 already in its inbox, so the reply is deferred for the sake of
// the reply to call 1 — which then parks in its servant. The deferred reply
// must reach its caller regardless (the connection's flusher writes it), on
// one processor as on two.
func TestDeferredReplyDoesNotWaitForSibling(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			st, err := nexus.NewTCPTransport("")
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ct, err := nexus.NewTCPTransport("")
			if err != nil {
				t.Fatal(err)
			}
			defer ct.Close()
			srv := newGatedServant(0, 1)
			ior, _, wait := serveGated(t, st.NewChannel(), srv, nil)
			b, err := core.NewORB(core.NewRouter(ct.NewChannel()), nil, nil).Bind(ior, admissionIface())
			if err != nil {
				t.Fatal(err)
			}
			cells := pipeline(t, b, 0, 1)
			// A frame sent after call 1 on the same connection has arrived, so
			// call 1 is in the server channel's inbox; call 0 holds the thread.
			probe := st.NewChannel()
			if err := ct.NewChannel().Send(probe.Addr(), []byte{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Recv(); err != nil {
				t.Fatal(err)
			}
			if x := srv.waitEntered(t); x != 0 {
				t.Fatalf("call %d served first, want 0", x)
			}
			deferred0 := counterValue("nexus_tcp_deferred_frames_total")
			close(srv.gates[0])
			if vals, err := cells[0].Values(); err != nil || vals[0] != int32(0) {
				t.Fatalf("call 0 = %v, %v", vals, err)
			}
			if srv.served.Load() != 1 {
				t.Fatal("call 1 finished before call 0's reply arrived; the scenario did not form")
			}
			if d := counterValue("nexus_tcp_deferred_frames_total") - deferred0; d < 1 {
				t.Errorf("reply 0 was not deferred (%d deferrals) with call 1 in the inbox: the backlog is not where the combiner looks", d)
			}
			close(srv.gates[1])
			if vals, err := cells[1].Values(); err != nil || vals[0] != int32(1) {
				t.Fatalf("call 1 = %v, %v", vals, err)
			}
			b.Shutdown("done")
			wait()
		})
	}
}

// TestControlFramesKeepArrivalOrder: a Locate and a Shutdown that arrive
// behind pipelined requests are handled when the thread reaches them — every
// request ahead of them is answered, the Locate is answered, and only then
// does ImplIsReady return.
func TestControlFramesKeepArrivalOrder(t *testing.T) {
	const n = 16
	fab := nexus.NewInproc()
	srv := newGatedServant(0)
	ior, _, wait := serveGated(t, fab.NewEndpoint("srv"), srv, nil)
	b, err := newClient(fab, nil).Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i)
	}
	cells := pipeline(t, b, xs...)
	srv.waitEntered(t) // call 0 holds the thread; 1..n-1 wait in the inbox
	loc := fab.NewEndpoint("locator")
	if err := loc.Send(nexus.Addr(ior.Addrs[0]), pgiop.EncodeLocateRequest(&pgiop.LocateRequest{ReqID: 77, ObjectKey: ior.Key})); err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown("behind the burst"); err != nil {
		t.Fatal(err)
	}
	close(srv.gates[0])
	for i, c := range cells {
		if vals, err := c.Values(); err != nil || vals[0] != int32(i) {
			t.Fatalf("call %d = %v, %v", i, vals, err)
		}
	}
	fr, err := loc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if lr, err := pgiop.DecodeLocateReply(fr.Data); err != nil || lr.ReqID != 77 || !lr.Found {
		t.Fatalf("locate reply = %+v, %v", lr, err)
	}
	wait()
	if got := srv.served.Load(); got != n {
		t.Fatalf("served %d of %d requests that arrived before the shutdown", got, n)
	}
	for i := 1; i < n; i++ {
		if x := srv.waitEntered(t); x != int32(i) {
			t.Fatalf("served call %d in position %d", x, i)
		}
	}
}

// TestAdmissionSeesEveryArrival: with a limit armed the adapter takes every
// arrival at once, so a burst that built up behind a held request is judged
// against the watermark as one — limit 2 admits two of the four and sheds
// two. A lazy take would serve all five one by one and shed none.
func TestAdmissionSeesEveryArrival(t *testing.T) {
	fab := nexus.NewInproc()
	srv := newGatedServant(0)
	ior, p, wait := serveGated(t, fab.NewEndpoint("srv"), srv, func(p *poa.POA) { p.SetAdmission(2, 0.01) })
	b, err := newClient(fab, nil).Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	cells := pipeline(t, b, 0)
	srv.waitEntered(t)
	cells = append(cells, pipeline(t, b, 1, 2, 3, 4)...)
	close(srv.gates[0])
	ok, shed := 0, 0
	for i, c := range cells {
		_, err := c.Values()
		var se *core.ShedError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &se):
			shed++
		default:
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if ok != 3 || shed != 2 || p.ShedCount() != 2 || srv.served.Load() != 3 {
		t.Fatalf("%d served (%d by the servant), %d shed, ShedCount %d; want 3, 3, 2, 2",
			ok, srv.served.Load(), shed, p.ShedCount())
	}
	b.Shutdown("done")
	wait()
}

// TestAdmissionSeesEveryArrivalInPlace: the same watermark on a server that
// reads its TCP connection in place, for arrivals that reach the socket
// while a backlog of two admitted calls is being served. When call 1 ends,
// take reads the socket at once and judges the arrivals against the one
// admitted call left: 3 is admitted, 4 and 5 are shed in transport time. A
// take that looked only at frames already delivered would leave them in
// the socket until the adapter went idle, judge them against an empty
// backlog and shed only one.
func TestAdmissionSeesEveryArrivalInPlace(t *testing.T) {
	sep, err := nexus.NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer sep.Close()
	cep, err := nexus.NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer cep.Close()
	// The caller's lone frames are written by InvokeNB itself; the pause
	// lets loopback put them in the server's socket.
	const settle = 20 * time.Millisecond
	srv := newGatedServant(0, 1)
	ior, p, wait := serveGated(t, sep, srv, func(p *poa.POA) { p.SetAdmission(2, 0.01) })
	b, err := core.NewORB(core.NewRouter(cep), nil, nil).Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	cells := pipeline(t, b, 0)
	srv.waitEntered(t)
	cells = append(cells, pipeline(t, b, 1, 2)...)
	time.Sleep(settle)
	close(srv.gates[0])
	if x := srv.waitEntered(t); x != 1 || p.ShedCount() != 0 {
		t.Fatalf("call %d served second with %d shed, want call 1 and none", x, p.ShedCount())
	}
	cells = append(cells, pipeline(t, b, 3, 4, 5)...)
	time.Sleep(settle)
	close(srv.gates[1])
	ok, shed := 0, 0
	for i, c := range cells {
		_, err := c.Values()
		var se *core.ShedError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &se):
			shed++
		default:
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if ok != 4 || shed != 2 || p.ShedCount() != 2 || srv.served.Load() != 4 {
		t.Fatalf("%d served (%d by the servant), %d shed, ShedCount %d; want 4, 4, 2, 2",
			ok, srv.served.Load(), shed, p.ShedCount())
	}
	b.Shutdown("done")
	wait()
}

// TestFaultFlushReachesTheInbox: a fault notice that the thread reaches with
// requests still waiting in the inbox answers every one of them with the
// "server fault" exception — they had reached the adapter — instead of
// leaving them to their callers' deadlines (none is set: a lost reply would
// hang the test) or serving them on a faulted adapter.
func TestFaultFlushReachesTheInbox(t *testing.T) {
	const queued = 8
	fab := nexus.NewInproc()
	srv := newGatedServant(0)
	ior, p, wait := serveGated(t, fab.NewEndpoint("srv"), srv, nil)
	b, err := newClient(fab, nil).Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	cells := pipeline(t, b, 0)
	srv.waitEntered(t)
	notice := pgiop.EncodeFaultNotice(&pgiop.FaultNotice{Rank: 3, Phase: "agreement", Reason: "sibling died"})
	if err := fab.NewEndpoint("sibling").Send(nexus.Addr(ior.Addrs[0]), notice); err != nil {
		t.Fatal(err)
	}
	xs := make([]int32, queued)
	for i := range xs {
		xs[i] = int32(i + 1)
	}
	cells = append(cells, pipeline(t, b, xs...)...)
	close(srv.gates[0])
	if _, err := cells[0].Values(); err != nil {
		t.Fatalf("the call served before the fault: %v", err)
	}
	for i, c := range cells[1:] {
		if _, err := c.Values(); err == nil || !strings.Contains(err.Error(), "server fault") {
			t.Fatalf("queued call %d = %v, want the server-fault exception", i+1, err)
		}
	}
	wait()
	if got := srv.served.Load(); got != 1 {
		t.Fatalf("servant ran %d times, want 1: a faulted adapter dispatched queued requests", got)
	}
	var f *poa.Fault
	if !errors.As(p.Fault(), &f) || f.Rank != 3 {
		t.Fatalf("Fault() = %v, want the adopted notice", p.Fault())
	}
}

// TestPoolGrowsBeforeBlocking: a flood against a pool at its minimum fills
// the hand-off queue and would park the POA thread at one worker until the
// flood was over — the controller's safe point is the far side of the loop.
// The grow arm runs before the blocking hand-off instead, so the pool
// reaches its maximum while every servant is still held.
func TestPoolGrowsBeforeBlocking(t *testing.T) {
	const calls = 64
	parked := make([]int32, calls)
	for i := range parked {
		parked[i] = int32(i)
	}
	fab := nexus.NewInproc()
	srv := newGatedServant(parked...)
	resizes0 := poolResizes()
	ior, _, wait := serveGated(t, fab.NewEndpoint("srv"), srv, func(p *poa.POA) { p.SetDispatchAuto(1, 4) })
	b, err := newClient(fab, nil).Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	cells := pipeline(t, b, parked...)
	// Four invocations held at once is four workers: each parks on its gate.
	for i := 0; i < 4; i++ {
		srv.waitEntered(t)
	}
	var workers int64
	obs.Default.Each(func(name string, m any) {
		if g, ok := m.(*obs.Gauge); ok && name == "poa_dispatch_pool_workers" {
			workers = g.Load()
		}
	})
	if workers != 4 || poolResizes()-resizes0 != 2 {
		t.Errorf("%d workers after %d resizes with the gate closed, want 4 after 2 (1 → 2 → 4)", workers, poolResizes()-resizes0)
	}
	for _, g := range srv.gates {
		close(g)
	}
	for i, c := range cells {
		if vals, err := c.Values(); err != nil || vals[0] != int32(i) {
			t.Fatalf("call %d = %v, %v", i, vals, err)
		}
	}
	b.Shutdown("done")
	wait()
}
