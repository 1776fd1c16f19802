package poa

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// TestSegmentFloodOfUncollectedCallsIsFreed floods a two-thread SPMD server
// with calls whose in-segments are never collected — cancelled before their
// gather completes, or timed out on one thread and finished by a segment that
// comes late — then makes one good call on the same binding. Once that call
// has been dispatched nothing of the others may be held: the segments on
// every thread and the part-gathered headers on thread 0 are bounded by the
// protocol (a binding's calls are dispatched in sequence order), not by how
// many calls were abandoned.
func TestSegmentFloodOfUncollectedCallsIsFreed(t *testing.T) {
	const (
		threads = 2
		calls   = 16 // of each kind
		n       = 8  // elements of the argument, 4 per server thread
		binding = "flood"
	)
	iface := &core.InterfaceDef{Name: "sink", Ops: []core.Operation{{
		Name:   "take",
		Params: []core.Param{core.NewParam("x", core.In, typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK"))},
	}}}
	fab := nexus.NewInproc()
	iorCh := make(chan core.IOR, 1)
	var held [threads]struct{ segs, gathers int }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("flood-host", threads).Run(func(th rts.Thread) {
			p := New(th, core.NewRouter(fab.NewEndpoint(fmt.Sprintf("flood%d", th.Rank()))), nil)
			p.PollInterval = 20e-6
			p.CollectDeadline = 0.01
			ior, err := p.RegisterSPMD("sink-1", iface, ServantFunc(func(*Context, string, []any) (any, []any, error) {
				return nil, nil, nil
			}))
			if err != nil {
				t.Error(err)
				return
			}
			if th.Rank() == 0 {
				iorCh <- ior
			}
			p.ImplIsReady()
			held[th.Rank()].segs, held[th.Rank()].gathers = len(p.segs), len(p.gathers)
		})
	}()
	ior := <-iorCh
	ep := fab.NewEndpoint("flood-client")
	send := func(thread int, frame []byte) {
		t.Helper()
		if err := ep.Send(nexus.Addr(ior.Addrs[thread]), frame); err != nil {
			t.Fatal(err)
		}
	}
	header := func(seq uint32, rank, size int32) []byte {
		return pgiop.EncodeRequest(&pgiop.Request{
			BindingID: binding, SeqNo: seq, ReqID: seq + 1, ClientRank: rank, ClientSize: size,
			ReplyAddr: string(ep.Addr()), ObjectKey: "sink-1", Operation: "take",
			DistIns: []pgiop.DistInSpec{{Param: 0, N: n, Layout: dist.BlockTemplate().Layout(n, int(size))}},
		})
	}
	segment := func(seq uint32, thread int) []byte {
		pay := cdr.NewEncoder(8 * n / threads)
		for i := 0; i < n/threads; i++ {
			pay.PutDouble(1)
		}
		return pgiop.EncodeArgStream(&pgiop.ArgStream{
			BindingID: binding, SeqNo: seq, Param: 0, Dir: pgiop.DirIn,
			Runs:    []pgiop.Run{{Global: int32(thread * n / threads), Len: n / threads}},
			Payload: pay.Bytes(),
		})
	}
	reply := func(seq uint32) *pgiop.Reply {
		t.Helper()
		fr, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		r, err := pgiop.DecodeReply(fr.Data)
		if err != nil || r.ReqID != seq+1 {
			t.Fatalf("call %d: reply %+v, %v", seq, r, err)
		}
		return r
	}

	seq := uint32(0)
	// Cancelled: client thread 0's header and every thread's segment arrive,
	// the call is cancelled, and client thread 1's header comes behind it.
	for i := 0; i < calls; i++ {
		send(0, header(seq, 0, 2))
		send(0, segment(seq, 0))
		send(1, segment(seq, 1))
		send(0, pgiop.EncodeCancelRequest(&pgiop.CancelRequest{BindingID: binding, SeqNo: seq}))
		send(0, header(seq, 1, 2))
		seq++
	}
	// Timed out: thread 1's segment is missing until the call has failed.
	for i := 0; i < calls; i++ {
		send(0, header(seq, 0, 1))
		send(0, segment(seq, 0))
		if r := reply(seq); r.Status != pgiop.StatusException || !strings.Contains(r.Error, "server thread 1") {
			t.Fatalf("timed-out call %d: reply %+v", seq, r)
		}
		send(1, segment(seq, 1))
		seq++
	}
	// The good call.
	send(0, header(seq, 0, 1))
	send(0, segment(seq, 0))
	send(1, segment(seq, 1))
	if r := reply(seq); r.Status != pgiop.StatusOK {
		t.Fatalf("good call: reply %+v", r)
	}
	send(0, pgiop.EncodeShutdown(&pgiop.Shutdown{Reason: "done"}))
	wg.Wait()

	for rank, h := range held {
		t.Logf("thread %d holds %d segment keys and %d gathers after %d abandoned calls", rank, h.segs, h.gathers, 2*calls)
		if h.segs != 0 || h.gathers != 0 {
			t.Errorf("thread %d still holds %d segment keys and %d gathers of settled calls", rank, h.segs, h.gathers)
		}
	}
}
