package nexus_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// The frame pool seen from outside, with the real consumers on top of it: an
// ORB and a POA (or a wire-level stand-in for one) exchange calls, and the
// pool's hook says which buffers went out and which came back.

// poolWatch follows every pooled buffer between hand-out and return.
type poolWatch struct {
	mu         sync.Mutex
	out        map[*byte]bool // handed out and not yet returned; the keys keep the buffers' addresses from being reused
	gets, puts int
	errs       []string
}

func watchFramePool(t *testing.T) *poolWatch {
	t.Helper()
	w := &poolWatch{out: map[*byte]bool{}}
	nexus.SetFrameHook(func(buf *byte, put bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		switch {
		case put && !w.out[buf]:
			w.errs = append(w.errs, fmt.Sprintf("buffer %p returned while not handed out: released twice", buf))
		case put:
			w.puts++
			delete(w.out, buf)
		case w.out[buf]:
			w.errs = append(w.errs, fmt.Sprintf("buffer %p handed out while already out: it was in the pool twice", buf))
		default:
			w.gets++
			w.out[buf] = true
		}
	})
	t.Cleanup(func() { nexus.SetFrameHook(nil) })
	return w
}

// check asserts the pool's ledger: wantPuts buffers came back, none twice,
// and no more than were handed out.
func (w *poolWatch) check(t *testing.T, wantPuts int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range w.errs {
		t.Error(e)
	}
	if w.puts != wantPuts {
		t.Errorf("%d frames returned to the pool, want %d (%d handed out)", w.puts, wantPuts, w.gets)
	}
	if w.puts > w.gets {
		t.Errorf("%d frames returned but only %d handed out", w.puts, w.gets)
	}
}

func longEchoIface() *core.InterfaceDef {
	return &core.InterfaceDef{Name: "echo", Ops: []core.Operation{{
		Name:   "echo",
		Params: []core.Param{core.NewParam("x", core.In, typecode.TCLong)},
		Result: typecode.TCLong,
	}}}
}

// serveEcho runs a one-thread server of the long echo on ep and returns the
// object's reference and a function that waits for the server to have
// returned from ImplIsReady — by which time every request it took has been
// served and its record released.
func serveEcho(t *testing.T, ep nexus.Endpoint, configure func(*poa.POA), servant poa.ServantFunc) (core.IOR, func()) {
	t.Helper()
	iorCh := make(chan core.IOR, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := poa.New(rts.NewChanGroup("recycle-srv", 1).Thread(0), core.NewRouter(ep), nil)
		p.PollInterval = 50e-6
		if configure != nil {
			configure(p)
		}
		ior, err := p.RegisterSingle("echo-1", longEchoIface(), servant)
		if err != nil {
			t.Error(err)
			close(iorCh)
			return
		}
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior, ok := <-iorCh
	if !ok {
		t.FailNow()
	}
	return ior, func() { <-done }
}

func echoLong(_ *poa.Context, _ string, in []any) (any, []any, error) { return in[0], nil, nil }

// TestFrameRecycledOncePerMessage: every small request frame a POA serves and
// every small reply frame that completes an invocation goes back to the pool
// exactly once; a frame whose message nobody releases — a shed reply, a
// duplicate reply, a reply that lost its invocation to a deadline or a
// cancel, a reply or a frame that does not decode — never does.
func TestFrameRecycledOncePerMessage(t *testing.T) {
	for _, lane := range []struct {
		name    string
		tcp     bool
		workers int
	}{
		{name: "inproc"},
		{name: "inproc-pool4", workers: 4},
		{name: "tcp", tcp: true},
		{name: "tcp-pool4", tcp: true, workers: 4},
	} {
		t.Run("served/"+lane.name, func(t *testing.T) {
			const calls, window = 600, 32
			var cliEP, srvEP nexus.Endpoint
			if lane.tcp {
				var err error
				if srvEP, err = nexus.NewTCPEndpoint(""); err != nil {
					t.Fatal(err)
				}
				if cliEP, err = nexus.NewTCPEndpoint(""); err != nil {
					t.Fatal(err)
				}
				defer cliEP.Close()
				defer srvEP.Close()
			} else {
				fab := nexus.NewInproc()
				cliEP, srvEP = fab.NewEndpoint("client"), fab.NewEndpoint("server")
			}
			w := watchFramePool(t)
			ior, wait := serveEcho(t, srvEP, func(p *poa.POA) { p.SetDispatchAuto(lane.workers, lane.workers) }, echoLong)
			b, err := core.NewORB(core.NewRouter(cliEP), nil, nil).Bind(ior, longEchoIface())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < calls/2; i++ {
				if vals, err := b.Invoke("echo", []any{int32(i)}); err != nil || vals[0] != int32(i) {
					t.Fatalf("call %d: (%v, %v)", i, vals, err)
				}
			}
			for i := calls / 2; i < calls; i += window {
				var cells []*future.Cell
				for k := i; k < i+window && k < calls; k++ {
					c, err := b.InvokeNB("echo", []any{int32(k)})
					if err != nil {
						t.Fatal(err)
					}
					cells = append(cells, c)
				}
				for k, c := range cells {
					if vals, err := c.Values(); err != nil || vals[0] != int32(i+k) {
						t.Fatalf("call %d: (%v, %v)", i+k, vals, err)
					}
				}
			}
			if err := b.Shutdown("done"); err != nil {
				t.Fatal(err)
			}
			wait()
			// One request and one reply per call; the Shutdown frame (and on
			// TCP the hellos) were handed out and left to the GC.
			w.check(t, 2*calls)
		})
	}

	t.Run("shed", func(t *testing.T) {
		const calls = 24
		fab := nexus.NewInproc()
		w := watchFramePool(t)
		var p *poa.POA
		ior, wait := serveEcho(t, fab.NewEndpoint("server"),
			func(a *poa.POA) { p = a; a.SetAdmission(1, 0.001) },
			func(_ *poa.Context, _ string, in []any) (any, []any, error) {
				time.Sleep(2 * time.Millisecond) // the rest of the burst arrives meanwhile
				return in[0], nil, nil
			})
		b, err := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil).Bind(ior, longEchoIface())
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]*future.Cell, calls)
		for i := range cells {
			if cells[i], err = b.InvokeNB("echo", []any{int32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		served := 0
		for i, c := range cells {
			switch vals, err := c.Values(); {
			case err == nil && vals[0] == int32(i):
				served++
			case !errors.Is(err, core.ErrOverloaded):
				t.Fatalf("call %d: (%v, %v), want its value or a shed", i, vals, err)
			}
		}
		if err := b.Shutdown("done"); err != nil {
			t.Fatal(err)
		}
		wait()
		if shed := p.ShedCount(); served == calls || int(shed) != calls-served {
			t.Fatalf("%d of %d calls served, adapter counts %d shed: the burst was not shed", served, calls, shed)
		}
		// The adapter releases a request it sheds as it releases one it
		// serves; the ORB releases the replies that completed a call, and
		// leaves a shed reply — which completes nothing — to the GC.
		w.check(t, calls+served)
	})

	t.Run("duplicate", func(t *testing.T) {
		const calls = 200
		fab := nexus.NewInproc()
		fi := nexus.NewFaultInjector(1, nexus.FaultPlan{Dup: 1})
		w := watchFramePool(t)
		ior, wait := serveEcho(t, fi.Wrap(fab.NewEndpoint("server")), nil, echoLong)
		b, err := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil).Bind(ior, longEchoIface())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < calls; i++ {
			if vals, err := b.Invoke("echo", []any{int32(i)}); err != nil || vals[0] != int32(i) {
				t.Fatalf("call %d: (%v, %v)", i, vals, err)
			}
		}
		if err := b.Shutdown("done"); err != nil {
			t.Fatal(err)
		}
		wait()
		if got := fi.Stats().Duplicated; got != calls {
			t.Fatalf("%d replies duplicated, want %d", got, calls)
		}
		// Every reply arrived twice, each copy in a buffer of its own: the
		// first completed its call and went back, the second found nothing
		// to complete and did not.
		w.check(t, 2*calls)
		if w.gets < 3*calls {
			t.Errorf("%d buffers handed out for %d requests and %d reply copies", w.gets, calls, 2*calls)
		}
	})

	t.Run("unreleased", func(t *testing.T) {
		// A wire-level server: the test reads each request off its endpoint
		// and answers however the case needs.
		fab := nexus.NewInproc()
		srv := fab.NewEndpoint("server")
		w := watchFramePool(t)
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil)
		ior := core.IOR{Interface: "echo", Key: "k", ServerSize: 1, Addrs: []string{string(srv.Addr())}}
		b, err := orb.Bind(ior, longEchoIface())
		if err != nil {
			t.Fatal(err)
		}
		issue := func(x int32) (*future.Cell, *pgiop.Request) {
			t.Helper()
			cell, err := b.InvokeNB("echo", []any{x})
			if err != nil {
				t.Fatal(err)
			}
			for {
				fr, err := srv.Recv() // the in-process fabric has delivered it already
				if err != nil {
					t.Fatal(err)
				}
				if typ, _ := pgiop.PeekType(fr.Data); typ != pgiop.MsgRequest {
					continue // a CancelRequest from an earlier case
				}
				req, err := pgiop.DecodeRequest(fr.Data)
				if err != nil {
					t.Fatal(err)
				}
				return cell, req
			}
		}
		send := func(req *pgiop.Request, r pgiop.Reply) {
			t.Helper()
			r.ReqID = req.ReqID
			if err := srv.Send(nexus.Addr(req.ReplyAddr), pgiop.EncodeReply(&r)); err != nil {
				t.Fatal(err)
			}
		}
		okBody := func(x int32) []byte {
			e := cdr.NewEncoder(8)
			if err := typecode.Marshal(e, typecode.TCLong, x); err != nil {
				t.Fatal(err)
			}
			return e.Bytes()
		}
		// good completes one call normally. Its pump works through whatever
		// the preceding case left in the client's inbox first, so each case
		// ends with one: puts counts the good calls and nothing else.
		good := 0
		flush := func() {
			t.Helper()
			good++
			cell, req := issue(int32(1000 + good))
			send(req, pgiop.Reply{Status: pgiop.StatusOK, Body: okBody(int32(1000 + good))})
			if vals, err := cell.Values(); err != nil || vals[0] != int32(1000+good) {
				t.Fatalf("good call %d: (%v, %v)", good, vals, err)
			}
			w.check(t, good)
		}
		flush()

		// A reply that arrives after its invocation expired.
		b.SetDeadline(0.02)
		cell, req := issue(1)
		if err := cell.Wait(); !errors.Is(err, core.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		b.SetDeadline(0)
		send(req, pgiop.Reply{Status: pgiop.StatusOK, Body: okBody(1)})
		flush()

		// A reply that arrives after its invocation was cancelled.
		cell, req = issue(2)
		if !orb.Cancel(cell) {
			t.Fatal("Cancel did not find the invocation")
		}
		send(req, pgiop.Reply{Status: pgiop.StatusOK, Body: okBody(2)})
		flush()

		// A shed reply, and an exception: they resolve the call with an error
		// and nobody releases them.
		cell, req = issue(3)
		send(req, pgiop.Reply{Status: pgiop.StatusOverloaded, Error: "full", RetryAfterMS: 1})
		if err := cell.Wait(); !errors.Is(err, core.ErrOverloaded) {
			t.Fatalf("err = %v, want a shed", err)
		}
		cell, req = issue(4)
		send(req, pgiop.Reply{Status: pgiop.StatusException, Error: "boom"})
		if err := cell.Wait(); err == nil {
			t.Fatal("exception reply resolved without an error")
		}
		flush()

		// A reply whose body does not decode as the result.
		cell, req = issue(5)
		send(req, pgiop.Reply{Status: pgiop.StatusOK, Body: []byte{1}})
		if err := cell.Wait(); err == nil {
			t.Fatal("truncated result resolved without an error")
		}
		flush()

		// Frames that do not decode as messages at all: foreign bytes, and a
		// reply cut short inside its header.
		client := nexus.Addr(req.ReplyAddr)
		whole := pgiop.EncodeReply(&pgiop.Reply{ReqID: 99, Status: pgiop.StatusException, Error: "never seen"})
		for _, frame := range [][]byte{[]byte("not a pgiop frame"), whole[:len(whole)-3]} {
			if err := srv.Send(client, frame); err != nil {
				t.Fatal(err)
			}
		}
		flush()
	})
}
