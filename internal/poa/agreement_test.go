package poa

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// phaseWatch wraps a computing thread and, once its owner arms it, counts
// the reserved-tag frames the thread sends and receives, and the received
// ones that announce nothing. Where nothing else uses reserved tags, that is
// the agreement traffic.
type phaseWatch struct {
	rts.Thread
	armed           bool // set and read by the owning thread only
	sent, got, idle int
}

func (w *phaseWatch) Send(dst int, tag rts.Tag, data []byte) {
	if w.armed && tag >= rts.ReservedBase {
		w.sent++
	}
	w.Thread.Send(dst, tag, data)
}

func (w *phaseWatch) Recv(src int, tag rts.Tag) rts.Message {
	m := w.Thread.Recv(src, tag)
	if w.armed && tag >= rts.ReservedBase {
		w.got++
		if cdr.NewDecoder(m.Data).GetULong() == 0 {
			w.idle++
		}
	}
	return m
}

// TestAgreementSingleBroadcastRound asserts the acceptance criterion
// directly: one collective phase costs exactly one broadcast round — P-1
// point-to-point sends over the binomial tree — no matter how many
// completed invocations it dispatches. The old protocol used 2+K
// broadcasts (count, per-request decision, shutdown probe), i.e. (2+K)(P-1)
// sends for the same phase.
func TestAgreementSingleBroadcastRound(t *testing.T) {
	const threads, k = 8, 5
	var sent, dispatched [threads]int
	g := rts.NewChanGroup("agree", threads)
	g.Run(func(th rts.Thread) {
		w := &phaseWatch{Thread: th, armed: true}
		p := New(w, nil, nil)
		p.objects["agree-1"] = newEntry(agreementIface(), ServantFunc(func(ctx *Context, op string, in []any) (any, []any, error) {
			dispatched[th.Rank()]++
			return nil, nil, nil
		}), true)
		if th.Rank() == 0 {
			seedReady(p, k)
		}
		th.Barrier() // plain th: barrier traffic is not counted
		if n := p.collectivePhase(true); n != k {
			t.Errorf("rank %d dispatched %d decisions, want %d", th.Rank(), n, k)
		}
		sent[th.Rank()] = w.sent
	})
	sends := 0
	for _, n := range sent {
		sends += n
	}
	if sends != threads-1 {
		t.Errorf("agreement for %d decisions across %d threads used %d reserved-tag sends; want exactly %d (one broadcast round)",
			k, threads, sends, threads-1)
	}
	for r, n := range dispatched {
		if n != k {
			t.Errorf("rank %d invoked the servant %d times, want %d", r, n, k)
		}
	}
}

// corruptDecisionFrames are agreement frames that must not decode.
func corruptDecisionFrames() map[string][]byte {
	return map[string][]byte{
		// Decision claims decDispatch but the request octets are garbage.
		"bad request": func() []byte {
			e := cdr.NewEncoder(32)
			e.PutULong(1)
			e.PutOctets([]byte{decDispatch, 0xFF, 0xEE})
			return e.Bytes()
		}(),
		// Frame promises two decisions but carries none.
		"truncated frame": func() []byte {
			e := cdr.NewEncoder(8)
			e.PutULong(2)
			return e.Bytes()
		}(),
	}
}

// TestCorruptDecisionFaults: a decision payload that does not decode must
// not panic the thread — it surfaces through the POA's failure path
// (Fault non-nil, adapter deactivated) so every sibling stops dispatching
// instead of diverging on order.
func TestCorruptDecisionFaults(t *testing.T) {
	for name, frame := range corruptDecisionFrames() {
		frame := frame
		t.Run(name, func(t *testing.T) {
			g := rts.NewChanGroup("corrupt", 2)
			g.Run(func(th rts.Thread) {
				if th.Rank() == 0 {
					rts.Bcast(th, 0, frame)
					return
				}
				p := New(th, nil, nil)
				p.objects["agree-1"] = newEntry(agreementIface(), ServantFunc(func(ctx *Context, op string, in []any) (any, []any, error) {
					return nil, nil, nil
				}), true)
				if n := p.collectivePhase(true); n != 0 {
					t.Errorf("dispatched %d decisions from a corrupt frame", n)
				}
				if p.Fault() == nil {
					t.Error("corrupt decision did not surface through Fault")
				} else if !strings.Contains(p.Fault().Error(), "corrupt") {
					t.Errorf("fault %q does not name the corrupt decision", p.Fault())
				}
				if !p.shutdown {
					t.Error("corrupt decision did not deactivate the adapter")
				}
			})
		})
	}
}

// incIface is one scalar operation, served as a single object and as an
// SPMD object alike.
func incIface() *core.InterfaceDef {
	return &core.InterfaceDef{Name: "inc", Ops: []core.Operation{{
		Name: "inc", Params: []core.Param{core.NewParam("n", core.In, typecode.TCLong)}, Result: typecode.TCLong,
	}}}
}

var incServant = ServantFunc(func(_ *Context, _ string, in []any) (any, []any, error) {
	return in[0].(int32) + 1, nil, nil
})

// incServer is a running adapter of size threads with a single inc object
// on thread 0 and an SPMD inc object on all of them.
type incServer struct {
	single, spmd core.IOR
	watch        []*phaseWatch // per rank, armed as ImplIsReady starts
	done         chan struct{} // one send per ImplIsReady that returns
}

func startIncServer(t *testing.T, fab *nexus.Inproc, size int) *incServer {
	t.Helper()
	s := &incServer{watch: make([]*phaseWatch, size), done: make(chan struct{}, size)}
	g := rts.NewChanGroup("inc", size)
	refs := make(chan struct{}, 1)
	for rank := range size {
		s.watch[rank] = &phaseWatch{Thread: g.Thread(rank)}
		go func() {
			w := s.watch[rank]
			p := New(w, core.NewRouter(fab.NewEndpoint("inc")), nil)
			p.PollInterval = 50e-6
			var err error
			if rank == 0 {
				if s.single, err = p.RegisterSingle("single-1", incIface(), incServant); err != nil {
					t.Error(err)
				}
			}
			spmd, err := p.RegisterSPMD("spmd-1", incIface(), incServant)
			if err != nil {
				t.Error(err)
			}
			if rank == 0 {
				s.spmd = spmd
				refs <- struct{}{}
			}
			w.armed = true
			p.ImplIsReady()
			s.done <- struct{}{}
		}()
	}
	if <-refs; t.Failed() {
		t.FailNow()
	}
	return s
}

// waitDone waits for every ImplIsReady of s to return, failing after limit.
func (s *incServer) waitDone(t *testing.T, limit time.Duration) {
	t.Helper()
	timeout := time.After(limit)
	for range s.watch {
		select {
		case <-s.done:
		case <-timeout:
			t.Fatalf("an ImplIsReady did not return within %v", limit)
		}
	}
}

func callInc(t *testing.T, b *core.Binding, n int32) {
	t.Helper()
	vals, err := b.Invoke("inc", []any{n})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != n+1 {
		t.Fatalf("inc(%d) = %v", n, vals[0])
	}
}

// TestOneThreadAdapterSkipsEmptyPhases: serving single objects runs no
// agreement phase at all — on a one-thread adapter, which has no sibling to
// agree with, and on a two-thread one, whose sibling is not blocked waiting
// for one — while an SPMD request and a shutdown on the same adapter each
// take the full phase, counted once at thread 0.
func TestOneThreadAdapterSkipsEmptyPhases(t *testing.T) {
	for _, size := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", size), func(t *testing.T) {
			fab := nexus.NewInproc()
			srv := startIncServer(t, fab, size)
			orb := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil)
			single, err := orb.Bind(srv.single, incIface())
			if err != nil {
				t.Fatal(err)
			}
			spmd, err := orb.SPMDBind(srv.spmd, incIface())
			if err != nil {
				t.Fatal(err)
			}
			base := poaAgreementPhases.Load()
			for n := int32(0); n < 200; n++ {
				callInc(t, single, n)
			}
			if got := poaAgreementPhases.Load() - base; got != 0 {
				t.Errorf("200 single-object requests ran %d agreement phases, want 0", got)
			}
			callInc(t, spmd, 1000)
			if got := poaAgreementPhases.Load() - base; got != 1 {
				t.Errorf("agreement phases after one SPMD request = %d, want 1", got)
			}
			callInc(t, single, 2000)
			if err := single.Shutdown("done"); err != nil {
				t.Fatal(err)
			}
			srv.waitDone(t, 10*time.Second) // the shutdown took the agreed path
			if got := poaAgreementPhases.Load() - base; got != 2 {
				t.Errorf("agreement phases after SPMD request + shutdown = %d, want 2", got)
			}
		})
	}
}

// TestAgreementFloodAnnouncesOnly floods a two-thread adapter with blocking
// SPMD calls. Thread 0 broadcasts one frame per call and one for the
// shutdown, not one per poll; every frame the sibling takes in ImplIsReady
// announces something; and so no backlog of empty phases stands between the
// shutdown and the sibling, which returns at once.
func TestAgreementFloodAnnouncesOnly(t *testing.T) {
	const n = 20000
	fab := nexus.NewInproc()
	srv := startIncServer(t, fab, 2)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil)
	spmd, err := orb.SPMDBind(srv.spmd, incIface())
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		callInc(t, spmd, int32(i))
	}
	single, err := orb.Bind(srv.single, incIface())
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	srv.waitDone(t, 500*time.Millisecond)
	if sent := srv.watch[0].sent; sent > n+3 {
		t.Errorf("thread 0 sent %d agreement frames for %d calls, want at most %d", sent, n, n+3)
	}
	if w := srv.watch[1]; w.idle != 0 {
		t.Errorf("the sibling took %d frames that announced nothing, of %d", w.idle, w.got)
	}
}

// TestProcessRequestsStaysLockstep: an explicit ProcessRequests is the
// paper's collective process_requests(), so with no traffic at all every
// call still runs one agreement phase on both threads, while the same polls
// inside ImplIsReady run none.
func TestProcessRequestsStaysLockstep(t *testing.T) {
	const calls = 10
	fab := nexus.NewInproc()
	g := rts.NewChanGroup("lockstep", 2)
	for _, c := range []struct {
		name     string
		lockstep bool
		want     int
	}{{"ProcessRequests", true, calls}, {"ImplIsReady", false, 0}} {
		t.Run(c.name, func(t *testing.T) {
			var got [2]int
			base := poaAgreementPhases.Load()
			g.Run(func(th rts.Thread) {
				w := &phaseWatch{Thread: th, armed: true}
				p := New(w, core.NewRouter(fab.NewEndpoint("lockstep")), nil)
				for range calls {
					p.processRequests(c.lockstep)
				}
				got[th.Rank()] = w.got
			})
			if phases := int(poaAgreementPhases.Load() - base); phases != c.want {
				t.Errorf("thread 0 ran %d phases in %d polls, want %d", phases, calls, c.want)
			}
			if got[1] != c.want {
				t.Errorf("the sibling took %d agreement frames in %d polls, want %d", got[1], calls, c.want)
			}
		})
	}
}

// FuzzDecodeDecision feeds arbitrary bytes to the agreement frame's decoder,
// which a sibling runs on what reaches it over the run-time system — TCP
// under JoinTCP. It must never panic, and a decision it accepts as a
// dispatch carries a request.
func FuzzDecodeDecision(f *testing.F) {
	e := cdr.NewEncoder(256)
	e.PutULong(2)
	appendDecision(e, &gather{reqs: map[int32]*pgiop.Request{0: agreementRequest(1)}})
	e.PutOctets(shutdownDecision)
	f.Add(e.Bytes())
	e = cdr.NewEncoder(8)
	e.PutULong(1)
	e.PutOctets(shutdownDecision)
	f.Add(e.Bytes())
	for _, frame := range corruptDecisionFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		d := cdr.NewDecoder(frame)
		for n := d.GetULong(); n > 0; n-- {
			pay := d.GetOctets()
			if d.Err() != nil {
				return
			}
			req, _, kind, err := decodeDecision(pay)
			if err == nil && kind != decShutdown && req == nil {
				t.Fatalf("decision % x decoded as a dispatch without a request", pay)
			}
		}
	})
}
