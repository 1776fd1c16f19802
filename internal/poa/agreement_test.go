package poa

import (
	"strings"
	"sync/atomic"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// countingThread wraps a Thread and counts RTS sends in the reserved tag
// space — i.e. the messages the agreement protocol itself costs.
type countingThread struct {
	rts.Thread
	sends *int64
}

func (c *countingThread) Send(dst int, tag rts.Tag, data []byte) {
	if tag >= rts.ReservedBase {
		atomic.AddInt64(c.sends, 1)
	}
	c.Thread.Send(dst, tag, data)
}

// TestAgreementSingleBroadcastRound asserts the acceptance criterion
// directly: one collective phase costs exactly one broadcast round — P-1
// point-to-point sends over the binomial tree — no matter how many
// completed invocations it dispatches. The old protocol used 2+K
// broadcasts (count, per-request decision, shutdown probe), i.e. (2+K)(P-1)
// sends for the same phase.
func TestAgreementSingleBroadcastRound(t *testing.T) {
	const threads, k = 8, 5
	var sends int64
	var dispatched [threads]int32
	g := rts.NewChanGroup("agree", threads)
	g.Run(func(th rts.Thread) {
		cth := &countingThread{Thread: th, sends: &sends}
		p := New(cth, nil, nil)
		p.objects["agree-1"] = newEntry(agreementIface(), ServantFunc(func(ctx *Context, op string, in []any) (any, []any, error) {
			dispatched[th.Rank()]++
			return nil, nil, nil
		}), true)
		if th.Rank() == 0 {
			seedReady(p, k)
		}
		th.Barrier() // plain th: barrier traffic is not counted
		if n := p.collectivePhase(); n != k {
			t.Errorf("rank %d dispatched %d decisions, want %d", th.Rank(), n, k)
		}
	})
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

// TestCorruptDecisionFaults: a decision payload that does not decode must
// not panic the thread — it surfaces through the POA's failure path
// (Fault non-nil, adapter deactivated) so every sibling stops dispatching
// instead of diverging on order.
func TestCorruptDecisionFaults(t *testing.T) {
	cases := map[string][]byte{
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
	for name, frame := range cases {
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
				if n := p.collectivePhase(); n != 0 {
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

// TestOneThreadAdapterSkipsEmptyPhases: a one-thread adapter has no sibling
// to agree with, so serving single objects runs no agreement phase at all —
// but an SPMD request and a shutdown on the same adapter still go through
// the full phase, one each.
func TestOneThreadAdapterSkipsEmptyPhases(t *testing.T) {
	singleIface := &core.InterfaceDef{Name: "one", Ops: []core.Operation{{
		Name: "inc", Params: []core.Param{core.NewParam("n", core.In, typecode.TCLong)}, Result: typecode.TCLong,
	}}}
	inc := ServantFunc(func(_ *Context, _ string, in []any) (any, []any, error) {
		return in[0].(int32) + 1, nil, nil
	})
	fab := nexus.NewInproc()
	type refs struct{ single, spmd core.IOR }
	refCh := make(chan refs, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := New(rts.NewChanGroup("one-thread", 1).Thread(0), core.NewRouter(fab.NewEndpoint("server")), nil)
		p.PollInterval = 50e-6
		single, err := p.RegisterSingle("single-1", singleIface, inc)
		if err != nil {
			t.Error(err)
			close(refCh)
			return
		}
		spmd, err := p.RegisterSPMD("spmd-1", singleIface, inc)
		if err != nil {
			t.Error(err)
			close(refCh)
			return
		}
		refCh <- refs{single, spmd}
		p.ImplIsReady()
	}()
	r, ok := <-refCh
	if !ok {
		t.FailNow()
	}
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil)
	single, err := orb.Bind(r.single, singleIface)
	if err != nil {
		t.Fatal(err)
	}
	spmd, err := orb.SPMDBind(r.spmd, singleIface)
	if err != nil {
		t.Fatal(err)
	}
	call := func(b *core.Binding, n int32) {
		t.Helper()
		vals, err := b.Invoke("inc", []any{n})
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] != n+1 {
			t.Fatalf("inc(%d) = %v", n, vals[0])
		}
	}

	base := poaAgreementPhases.Load()
	for n := int32(0); n < 200; n++ {
		call(single, n)
	}
	if got := poaAgreementPhases.Load() - base; got != 0 {
		t.Errorf("200 single-object requests ran %d agreement phases, want 0", got)
	}
	call(spmd, 1000)
	if got := poaAgreementPhases.Load() - base; got != 1 {
		t.Errorf("agreement phases after one SPMD request = %d, want 1", got)
	}
	call(single, 2000)
	if err := single.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	<-done // ImplIsReady returned: the shutdown took the agreed path
	if got := poaAgreementPhases.Load() - base; got != 2 {
		t.Errorf("agreement phases after SPMD request + shutdown = %d, want 2", got)
	}
}
