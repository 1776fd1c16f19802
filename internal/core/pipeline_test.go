package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pardis/internal/cdr"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/typecode"
)

// echoServer is a raw wire-level server: it decodes pgiop Requests off a
// nexus endpoint and answers them however the test directs, bypassing the
// POA so reply order and timing are fully under test control.
type echoServer struct {
	ep nexus.Endpoint
}

type echoReq struct {
	reqID uint32
	to    nexus.Addr
	val   int32
}

// collect receives exactly n requests without replying to any of them —
// every one of the client's sends must therefore have been pipelined onto
// the wire with no reply in between. Other traffic (cancel notices) is
// skipped.
func (s *echoServer) collect(n int) ([]echoReq, error) {
	reqs := make([]echoReq, 0, n)
	for len(reqs) < n {
		fr, err := s.ep.Recv()
		if err != nil {
			return nil, err
		}
		if t, err := pgiop.PeekType(fr.Data); err == nil && t != pgiop.MsgRequest {
			continue
		}
		req, err := pgiop.DecodeRequest(fr.Data)
		if err != nil {
			return nil, fmt.Errorf("decode request: %w", err)
		}
		dec := cdr.NewDecoder(req.Body)
		v, err := typecode.Unmarshal(dec, typecode.TCLong)
		if err != nil {
			return nil, fmt.Errorf("decode arg: %w", err)
		}
		reqs = append(reqs, echoReq{reqID: req.ReqID, to: nexus.Addr(req.ReplyAddr), val: v.(int32)})
	}
	return reqs, nil
}

func (s *echoServer) reply(r echoReq) error {
	frame, err := replyFrame(r)
	if err != nil {
		return err
	}
	return s.ep.Send(r.to, frame)
}

// replyFrame encodes the successful reply to r.
func replyFrame(r echoReq) ([]byte, error) {
	enc := cdr.NewEncoder(8)
	defer enc.Release()
	if err := typecode.Marshal(enc, typecode.TCLong, r.val); err != nil {
		return nil, err
	}
	return pgiop.EncodeReply(&pgiop.Reply{ReqID: r.reqID, Status: pgiop.StatusOK, Body: enc.Bytes()}), nil
}

type connCounter interface{ Transport() *nexus.TCPTransport }

func echoOrb(t *testing.T) (*ORB, *Binding, *echoServer) {
	t.Helper()
	cliEP, srvEP := tcpEndpoints(t)
	return echoOrbOn(t, cliEP, srvEP)
}

// tcpEndpoints returns a client and a server endpoint of two TCP transports,
// closed when the test ends.
func tcpEndpoints(t *testing.T) (cli, srv nexus.Endpoint) {
	t.Helper()
	srvEP, err := nexus.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvEP.Close() })
	cliEP, err := nexus.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cliEP.Close() })
	return cliEP, srvEP
}

// echoOrbOn binds a client ORB on cliEP to the raw echo server on srvEP.
func echoOrbOn(t *testing.T, cliEP, srvEP nexus.Endpoint) (*ORB, *Binding, *echoServer) {
	t.Helper()
	orb := NewORB(NewRouter(cliEP), nil, nil)
	iface := &InterfaceDef{Name: "echo", Ops: []Operation{{
		Name:       "echo",
		Idempotent: true, // retried only by tests that also set a RetryPolicy
		Params:     []Param{NewParam("x", In, typecode.TCLong)},
		Result:     typecode.TCLong,
	}}}
	ior := IOR{Interface: "echo", Key: "k", ServerSize: 1, Addrs: []string{string(srvEP.Addr())}}
	b, err := orb.Bind(ior, iface)
	if err != nil {
		t.Fatal(err)
	}
	return orb, b, &echoServer{ep: srvEP}
}

// TestPipelinedInterleavedReplies drives hundreds of concurrent requests
// back-to-back over one shared TCP connection, has the server answer them
// in shuffled order, and checks every future resolves to its own argument —
// i.e. replies are matched strictly by ReqID, not arrival order.
func TestPipelinedInterleavedReplies(t *testing.T) {
	const n = 300
	orb, b, srv := echoOrb(t)
	server0 := b.IOR().Addrs[0]

	type result struct {
		reqs []echoReq
		err  error
	}
	collected := make(chan result, 1)
	go func() {
		reqs, err := srv.collect(n)
		collected <- result{reqs, err}
	}()

	// Issue every request before any reply can exist: the server above
	// withholds all replies until it has seen all n requests.
	cells := make([]*future.Cell, n)
	for i := range cells {
		c, err := b.InvokeNB("echo", []any{int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = c
	}
	if got := orb.Inflight(server0); got != n {
		t.Fatalf("Inflight = %d after issuing %d pipelined requests, want %d", got, n, n)
	}

	res := <-collected
	if res.err != nil {
		t.Fatal(res.err)
	}
	// Reply in a seeded-shuffled order so completion order is decoupled
	// from issue order.
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(n, func(i, j int) { res.reqs[i], res.reqs[j] = res.reqs[j], res.reqs[i] })
	go func() {
		for _, r := range res.reqs {
			if err := srv.reply(r); err != nil {
				return
			}
		}
	}()

	for i, c := range cells {
		vals, err := c.Values()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if got := vals[0].(int32); got != int32(i) {
			t.Fatalf("cell %d resolved to %d: replies mismatched across the shared connection", i, got)
		}
	}
	if got := orb.Inflight(server0); got != 0 {
		t.Fatalf("Inflight = %d after all replies claimed, want 0", got)
	}
	// All n round trips multiplexed over a single physical socket per side.
	cliT := orb.Router().ep.(connCounter).Transport()
	if got := cliT.ConnCount(); got != 1 {
		t.Fatalf("client transport holds %d connections, want 1", got)
	}
	if got := srv.ep.(connCounter).Transport().ConnCount(); got != 1 {
		t.Fatalf("server transport holds %d connections, want 1", got)
	}
}

// TestLateReplyAfterTimeout checks the pipelining ledger composes with the
// deadline sweep: a reply that arrives after its invocation timed out is
// discarded harmlessly and cannot complete a later request.
func TestLateReplyAfterTimeout(t *testing.T) {
	orb, b, srv := echoOrb(t)
	server0 := b.IOR().Addrs[0]

	held := make(chan echoReq, 1)
	go func() {
		reqs, err := srv.collect(1)
		if err != nil {
			return
		}
		held <- reqs[0]
	}()

	b.SetDeadline(0.05)
	cell, err := b.InvokeNB("echo", []any{int32(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if got := orb.Inflight(server0); got != 0 {
		t.Fatalf("Inflight = %d after deadline expiry, want 0", got)
	}

	// Now run a fresh invocation, and deliver the stale reply ahead of its
	// answer: one connection keeps the order, so the stale reply lands
	// first. Its ReqID no longer matches any pending entry, so it must be
	// dropped and the new request must resolve to its own value.
	stale := <-held
	replied := make(chan error, 1)
	go func() {
		reqs, err := srv.collect(1)
		if err == nil {
			if err = srv.reply(stale); err == nil {
				err = srv.reply(reqs[0])
			}
		}
		replied <- err
	}()
	b.SetDeadline(5)
	vals, err := b.Invoke("echo", []any{int32(42)})
	if rerr := <-replied; rerr != nil {
		t.Fatalf("delivering the stale reply and the fresh one: %v", rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[0].(int32); got != 42 {
		t.Fatalf("fresh invocation resolved to %d (stale reply leaked through), want 42", got)
	}
}

// TestReplyRecordReleasedOncePerCompletion drives the reply record's two
// lifetime rules through every way an invocation can end — completed,
// completed with a duplicate reply behind it, expired with the reply
// arriving late, cancelled while replies stream in: a record goes back to
// the pool at most once, and never while its call record still points at it.
func TestReplyRecordReleasedOncePerCompletion(t *testing.T) {
	const n = 96
	orb, b, srv := echoOrb(t)

	collected := make(chan []echoReq, 1)
	go func() {
		reqs, _ := srv.collect(n)
		collected <- reqs
	}()
	b.SetDeadline(0.25)
	cells := make([]*future.Cell, n)
	for i := range cells {
		c, err := b.InvokeNB("echo", []any{int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = c
	}
	orb.mu.Lock()
	recs := make([]*pendingReq, 0, n)
	for _, p := range orb.pending {
		recs = append(recs, p)
	}
	orb.mu.Unlock()
	reqs := <-collected
	if len(reqs) != n {
		t.Fatalf("server collected %d requests, want %d", len(reqs), n)
	}

	// Thirds by argument value: 0 is answered (twice — the duplicate must
	// find nothing to complete), 1 is cancelled from another goroutine while
	// those answers stream in and is answered too, 2 is answered only after
	// its deadline has fired.
	var late []echoReq
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i < n; i += 3 {
			orb.Cancel(cells[i])
		}
	}()
	go func() {
		defer wg.Done()
		for _, r := range reqs {
			switch r.val % 3 {
			case 0:
				srv.reply(r)
				srv.reply(r)
			case 1:
				srv.reply(r)
			}
		}
	}()
	for _, r := range reqs {
		if r.val%3 == 2 {
			late = append(late, r)
		}
	}
	for i, c := range cells {
		vals, err := c.Values()
		switch {
		case i%3 == 0 && (err != nil || vals[0] != int32(i)):
			t.Fatalf("cell %d: (%v, %v), want its own value", i, vals, err)
		case i%3 == 1 && err == nil && vals[0] != int32(i):
			t.Fatalf("cell %d: cancel lost the race but the value is %v", i, vals[0])
		case i%3 == 1 && err != nil && !errors.Is(err, ErrCancelled):
			t.Fatalf("cell %d: %v, want ErrCancelled or its value", i, err)
		case i%3 == 2 && !errors.Is(err, ErrDeadline):
			t.Fatalf("cell %d: err = %v, want ErrDeadline", i, err)
		}
	}
	wg.Wait()
	for _, r := range late {
		srv.reply(r)
	}
	// A fresh call pumps the duplicates and stragglers through the ORB.
	go func() {
		if reqs, err := srv.collect(1); err == nil {
			srv.reply(reqs[0])
		}
	}()
	b.SetDeadline(5)
	if vals, err := b.Invoke("echo", []any{int32(7777)}); err != nil || vals[0] != int32(7777) {
		t.Fatalf("fresh invocation: (%v, %v)", vals, err)
	}

	// Everything the pool holds must be distinct (a record released twice
	// would be handed out twice) and detached from every invocation.
	attached := map[*Msg]bool{}
	for _, p := range recs {
		if p.reply != nil {
			attached[p.reply] = true
		}
	}
	pooled := map[*Msg]bool{}
	for i := 0; i < 4*n; i++ {
		m := msgPool.Get().(*Msg)
		if pooled[m] {
			t.Fatalf("record %p is in the pool twice", m)
		}
		if attached[m] {
			t.Fatalf("record %p was released while an invocation still holds it as its reply", m)
		}
		if m.Reply != nil || m.Req != nil || m.From != "" {
			t.Fatalf("pooled record was not zeroed: %+v", m)
		}
		pooled[m] = true
	}
}

// TestLostClaimKeepsReplyRecord pins the narrow interleaving the stress test
// above only sometimes hits: the reply has arrived and is attached to its
// invocation, and a cancel wins the claim before completion does. Completion
// must then leave the record alone — the invocation still points at it — and
// with it the pooled frame the record was decoded from.
func TestLostClaimKeepsReplyRecord(t *testing.T) {
	orb, b, srv := echoOrb(t)
	collected := make(chan []echoReq, 1)
	go func() {
		reqs, _ := srv.collect(1)
		collected <- reqs
	}()
	cell, err := b.InvokeNB("echo", []any{int32(5)})
	if err != nil {
		t.Fatal(err)
	}
	reqs := <-collected
	if len(reqs) != 1 {
		t.Fatal("server saw no request")
	}
	frame, err := replyFrame(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Through a fabric, so that the frame is a pooled one.
	fab := nexus.NewInproc()
	from, to := fab.NewEndpoint("from"), fab.NewEndpoint("to")
	if err := from.Send(to.Addr(), frame); err != nil {
		t.Fatal(err)
	}
	fr, err := to.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMsg(fr)
	if err != nil {
		t.Fatal(err)
	}
	if !m.FramePooled() {
		t.Fatal("a small in-process frame is not pooled")
	}
	orb.mu.Lock()
	p := orb.pending[reqs[0].reqID]
	orb.mu.Unlock()
	p.reply = m
	if !orb.Cancel(cell) {
		t.Fatal("Cancel did not find the pending invocation")
	}
	orb.maybeComplete(p)
	if p.reply != m || m.Reply == nil || m.Reply.ReqID != reqs[0].reqID {
		t.Fatal("completion released a reply record its invocation still holds")
	}
	if !m.FramePooled() || !bytes.Equal(fr.Data, frame) {
		t.Fatal("completion returned the frame of a reply record its invocation still holds")
	}
	if err := cell.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// recvSignal is an endpoint that reports each blocking receive its owner
// enters.
type recvSignal struct {
	nexus.Endpoint
	entered chan struct{}
}

func (e *recvSignal) Recv() (nexus.Frame, error) {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	return e.Endpoint.Recv()
}

// TestCancelWakesParkedOwner: the owning thread blocks in Values on a call
// nobody answers — no deadline is armed, so its pump parks in the transport's
// blocking receive — and another goroutine cancels the call once the owner
// has entered that receive. Values must return ErrCancelled promptly, not
// whenever some unrelated frame next arrives.
func TestCancelWakesParkedOwner(t *testing.T) {
	for _, fab := range []struct {
		name string
		pair func(t *testing.T) (cli, srv nexus.Endpoint)
	}{
		{"inproc", func(*testing.T) (nexus.Endpoint, nexus.Endpoint) {
			f := nexus.NewInproc()
			return f.NewEndpoint("client"), f.NewEndpoint("server")
		}},
		{"tcp", tcpEndpoints},
	} {
		t.Run(fab.name, func(t *testing.T) {
			cli, srv := fab.pair(t)
			owner := &recvSignal{Endpoint: cli, entered: make(chan struct{}, 1)}
			orb, b, _ := echoOrbOn(t, owner, srv)
			cell, err := b.InvokeNB("echo", []any{int32(1)})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := cell.Values()
				done <- err
			}()
			<-owner.entered
			if !orb.Cancel(cell) {
				t.Fatal("Cancel did not find the pending call")
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("Values = %v, want ErrCancelled", err)
				}
			case <-time.After(time.Second):
				t.Fatal("the owner was still parked 1 s after Cancel")
			}
		})
	}
}

// TestTimedLedgerTracksDeadlines walks the count behind hasTimed through
// every transition of a deadlined request — issue, completion, cancel,
// expiry into backoff, resend, transport failure — checking it against a
// scan of the pending table each time.
func TestTimedLedgerTracksDeadlines(t *testing.T) {
	orb, b, srv := echoOrb(t)
	check := func(stage string, want int) {
		t.Helper()
		orb.mu.Lock()
		defer orb.mu.Unlock()
		scan := 0
		for _, p := range orb.pending {
			if p.armed() {
				scan++
			}
		}
		if orb.timed != scan || scan != want {
			t.Fatalf("%s: timed = %d, pending table holds %d deadlined requests, want %d", stage, orb.timed, scan, want)
		}
	}
	issue := func(n int) []*future.Cell {
		t.Helper()
		cells := make([]*future.Cell, n)
		for i := range cells {
			c, err := b.InvokeNB("echo", []any{int32(i)})
			if err != nil {
				t.Fatal(err)
			}
			cells[i] = c
		}
		return cells
	}
	serve := func(n int, answer func(i int, r echoReq)) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			reqs, err := srv.collect(n)
			if err != nil {
				return
			}
			for i, r := range reqs {
				answer(i, r)
			}
		}()
		return done
	}

	// No deadline: nothing is timed, and a blocking pump may park.
	served := serve(2, func(_ int, r echoReq) { srv.reply(r) })
	plain := issue(2)
	check("undeadlined in flight", 0)
	if orb.hasTimed() {
		t.Fatal("hasTimed with no deadline armed")
	}
	for _, c := range plain {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	<-served

	// Long deadline: four in flight, one cancelled, one completed.
	b.SetDeadline(30)
	served = serve(4, func(i int, r echoReq) {
		if i == 1 {
			srv.reply(r)
		}
	})
	held := issue(4)
	check("deadlined in flight", 4)
	<-served
	orb.Cancel(held[0])
	check("after cancel", 3)
	if err := held[1].Wait(); err != nil {
		t.Fatal(err)
	}
	check("after completion", 2)

	// Short deadline with one retry: the first attempt is dropped, expires
	// into backoff (untimed while parked, but hasTimed stays true), and the
	// resend re-arms it; the second attempt is answered.
	b.SetDeadline(0.02)
	b.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: 0.005})
	served = serve(2, func(i int, r echoReq) {
		if i == 1 {
			srv.reply(r)
		}
	})
	retried := issue(1)
	check("retryable in flight", 3)
	if err := retried[0].Wait(); err != nil {
		t.Fatalf("retried invocation: %v", err)
	}
	<-served
	check("after retry completed", 2)

	// Transport failure resolves whatever is left and zeroes the ledger.
	orb.Router().Close()
	for _, c := range held[2:] {
		if err := c.Wait(); err == nil {
			t.Fatal("invocation survived a closed transport")
		}
	}
	check("after transport failure", 0)
	if orb.hasTimed() {
		t.Fatal("hasTimed after every request resolved")
	}
}

// TestPendingReqStaysSmall guards what a non-blocking call allocates: the
// caller's cell only — its state word, driver pointer, scalar word and two
// result slots — in the allocator's 64 B size class. The tracking record is the
// ORB's and recycled, and state only some calls need — distributed out
// bookkeeping, deadline and retry state — hangs behind outs and timed, which
// a plain call leaves nil.
func TestPendingReqStaysSmall(t *testing.T) {
	// 240 B when the record, the cell (with its condition variable) and the
	// result slots were one allocation; 120 B when the cell held a mutex and
	// sat beside the slots; 72 B with a pump, a wake pointer and three slots.
	if size := unsafe.Sizeof(future.Cell{}); size > 64 {
		t.Errorf("future.Cell is %d bytes, want <= 64", size)
	}
	orb, b, srv := echoOrb(t)
	go func() {
		if reqs, err := srv.collect(2); err == nil {
			srv.reply(reqs[0])
			srv.reply(reqs[1])
		}
	}()
	plain, err := b.InvokeNB("echo", []any{int32(1)})
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(5)
	timed, err := b.InvokeNB("echo", []any{int32(2)})
	if err != nil {
		t.Fatal(err)
	}
	orb.mu.Lock()
	for _, p := range orb.pending {
		if p.outs != nil || (p.timed != nil) != (p.call == timed) {
			t.Errorf("call %d: outs = %v, timed = %v", p.seqNo, p.outs, p.timed)
		}
	}
	n := len(orb.pending)
	orb.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d calls pending, want 2", n)
	}
	for _, c := range []*future.Cell{plain, timed} {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockingCallRecyclesRecord: a steady stream of blocking calls
// allocates no call record — every call takes the one its predecessor gave
// back — and the slice each returns is its own, whether its values were
// copied out of the record's inline slots (one result) or decoded into a
// slice of their own (four results, more than the slots hold).
func TestBlockingCallRecyclesRecord(t *testing.T) {
	const calls, quads = 200, 20
	orb, b, srv := echoOrb(t)
	go func() {
		for i := 0; ; i++ {
			reqs, err := srv.collect(1)
			if err != nil {
				return
			}
			r := reqs[0]
			frame, err := replyFrame(r)
			if i >= calls {
				frame, err = quadReplyFrame(r)
			}
			if err != nil || srv.ep.Send(r.to, frame) != nil {
				return
			}
		}
	}()
	kept := make([][]any, calls)
	var rec *pendingReq
	for i := range kept {
		vals, err := b.Invoke("echo", []any{int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = vals
		if len(orb.free) != 1 {
			t.Fatalf("call %d: %d records on the free list, want 1", i, len(orb.free))
		}
		if i == 0 {
			rec = orb.free[0]
		} else if orb.free[0] != rec {
			t.Fatalf("call %d used a fresh record", i)
		}
	}

	quad := &InterfaceDef{Name: "quad", Ops: []Operation{{
		Name: "quad",
		Params: []Param{NewParam("x", In, typecode.TCLong),
			NewParam("a", Out, typecode.TCLong), NewParam("b", Out, typecode.TCLong), NewParam("c", Out, typecode.TCLong)},
		Result: typecode.TCLong,
	}}}
	qb, err := orb.Bind(b.IOR(), quad)
	if err != nil {
		t.Fatal(err)
	}
	kept4 := make([][]any, quads)
	for i := range kept4 {
		vals, err := qb.Invoke("quad", []any{int32(i), nil, nil, nil})
		if err != nil {
			t.Fatal(err)
		}
		kept4[i] = vals
		if len(orb.free) != 1 || orb.free[0] != rec {
			t.Fatalf("quad call %d did not reuse the record", i)
		}
	}

	for i, vals := range kept {
		if len(vals) != 1 || cap(vals) != 1 || vals[0] != int32(i) {
			t.Fatalf("call %d returned %v (cap %d), want its own [%d]", i, vals, cap(vals), i)
		}
	}
	for i, vals := range kept4 {
		want := []any{int32(i), int32(i + 1), int32(i + 2), int32(i + 3)}
		if len(vals) != 4 || cap(vals) != 4 || fmt.Sprint(vals) != fmt.Sprint(want) {
			t.Fatalf("quad call %d returned %v (cap %d), want its own %v", i, vals, cap(vals), want)
		}
	}
}

// quadReplyFrame encodes the successful reply to a quad call: the return
// value r.val and out values r.val+1 … r.val+3.
func quadReplyFrame(r echoReq) ([]byte, error) {
	enc := cdr.NewEncoder(16)
	defer enc.Release()
	for k := int32(0); k < 4; k++ {
		if err := typecode.Marshal(enc, typecode.TCLong, r.val+k); err != nil {
			return nil, err
		}
	}
	return pgiop.EncodeReply(&pgiop.Reply{ReqID: r.reqID, Status: pgiop.StatusOK, Body: enc.Bytes()}), nil
}

// TestCancelRaceKeepsCellsOwnValues races Cancel from another goroutine with
// replies and expiries on 96 non-blocking calls, then runs enough further
// calls to recycle every record those calls used: no cell may resolve to, or
// later read, a value that is not its own, and no call stays pending.
func TestCancelRaceKeepsCellsOwnValues(t *testing.T) {
	const n = 96
	orb, b, srv := echoOrb(t)
	collected := make(chan []echoReq, 1)
	go func() {
		reqs, _ := srv.collect(n)
		collected <- reqs
	}()
	b.SetDeadline(0.1)
	cells := make([]*future.Cell, n)
	for i := range cells {
		c, err := b.InvokeNB("echo", []any{int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = c
	}
	reqs := <-collected
	// Replies for most calls stream in shuffled; every fourth call gets none
	// and expires; a goroutine cancels every call in a seeded order while
	// the replies and the expiries land.
	rng := rand.New(rand.NewSource(96))
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	order := rng.Perm(n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, r := range reqs {
			if r.val%4 != 3 {
				srv.reply(r)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, i := range order {
			orb.Cancel(cells[i])
		}
	}()
	check := func(stage string) {
		t.Helper()
		for i, c := range cells {
			// A blocking wait: a cancel from the other goroutine wakes an
			// owner parked in the receive. (An answered call may still expire
			// on a loaded machine: a timing outcome, not a wrong value.)
			vals, err := c.Values()
			switch {
			case err == nil && (len(vals) != 1 || vals[0] != int32(i)):
				t.Fatalf("%s: cell %d reads %v, want its own value", stage, i, vals)
			case err != nil && !errors.Is(err, ErrCancelled) && !errors.Is(err, ErrDeadline):
				t.Fatalf("%s: cell %d: %v", stage, i, err)
			}
		}
	}
	check("resolved")
	wg.Wait()
	b.SetDeadline(5)
	go func() {
		for {
			reqs, err := srv.collect(1)
			if err != nil || srv.reply(reqs[0]) != nil {
				return
			}
		}
	}()
	for i := 0; i < 2*maxFreeRecords; i++ {
		c, err := b.InvokeNB("echo", []any{int32(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if vals, err := c.Values(); err != nil || vals[0] != int32(1000+i) {
			t.Fatalf("fresh call %d: (%v, %v)", i, vals, err)
		}
	}
	check("after their records were reused")
	orb.mu.Lock()
	defer orb.mu.Unlock()
	if len(orb.pending) != 0 || len(orb.backoff) != 0 {
		t.Fatalf("%d calls pending and %d parked after every call resolved", len(orb.pending), len(orb.backoff))
	}
}

// counterValue reads a counter of the default registry by name.
func counterValue(name string) uint64 {
	var v uint64
	obs.Default.Each(func(n string, m any) {
		if c, ok := m.(*obs.Counter); ok && n == name {
			v = c.Load()
		}
	})
	return v
}

// TestLateWaitTakesReplyBeforeDeadline: a reply that reached the client's
// socket before the call's deadline resolves the call, even when its caller
// first waits after the deadline has passed. The pump's timed wait takes
// only what has been delivered when it is about to park, but a round whose
// wait would end at once reads the socket before the sweep expires anything.
func TestLateWaitTakesReplyBeforeDeadline(t *testing.T) {
	_, b, srv := echoOrb(t)
	b.SetDeadline(0.05)
	c, err := b.InvokeNB("echo", []any{int32(7)})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := srv.collect(1)
	if err == nil {
		err = srv.reply(reqs[0])
	}
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the caller computes past its deadline
	if vals, err := c.Values(); err != nil || vals[0] != int32(7) {
		t.Fatalf("late wait on an answered call: (%v, %v), want 7", vals, err)
	}
}

// TestInPlaceDeadlinedCalls: a client ORB on a standalone TCP endpoint, one
// server, reads its replies in place, also when a deadline is armed and its
// pump parks in the ORB's timed wait — which is then a read of the
// connection with the deadline as the read's. A reply ends that wait, and a
// call nobody answers fails at its deadline, not before.
func TestInPlaceDeadlinedCalls(t *testing.T) {
	orb, b, srv := echoOrb(t)
	b.SetDeadline(5)
	const n = 20
	read0, hand0 := counterValue("nexus_tcp_frames_read_in_place_total"), counterValue("nexus_tcp_read_handoffs_total")
	served := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			reqs, err := srv.collect(1)
			if err == nil {
				err = srv.reply(reqs[0])
			}
			if err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	for i := int32(0); i < n; i++ {
		vals, err := b.Invoke("echo", []any{i})
		if err != nil || vals[0].(int32) != i {
			t.Fatalf("call %d: %v, %v", i, vals, err)
		}
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// Both ends read in place: every request and every reply.
	if got := counterValue("nexus_tcp_frames_read_in_place_total") - read0; got < 2*n {
		t.Errorf("%d frames read in place, want all %d", got, 2*n)
	}
	if got := counterValue("nexus_tcp_read_handoffs_total") - hand0; got != 0 {
		t.Errorf("%d connections handed to a reader goroutine, want 0", got)
	}

	b.SetDeadline(0.05)
	start := orb.w.Elapsed()
	if _, err := b.Invoke("echo", []any{int32(-1)}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("unanswered call: %v, want ErrDeadline", err)
	}
	if waited := orb.w.Elapsed() - start; waited < 0.05 {
		t.Fatalf("unanswered call failed after %.6fs, before its 0.05s deadline", waited)
	}
}
