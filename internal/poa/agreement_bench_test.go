package poa

import (
	"fmt"
	"testing"

	"pardis/internal/core"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
)

// agreementIface is the smallest dispatchable SPMD surface: one oneway op
// with no arguments, so the benchmark isolates the agreement protocol
// itself (header broadcast + identical dequeue on every thread) from
// marshaling and reply traffic.
func agreementIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "agree",
		Ops:  []core.Operation{{Name: "nop", Oneway: true}},
	}
}

func agreementRequest(seq uint32) *pgiop.Request {
	return &pgiop.Request{
		BindingID: "agree-binding", SeqNo: seq, ReqID: seq,
		ClientRank: 0, ClientSize: 1,
		ObjectKey: "agree-1", Operation: "nop", Oneway: true,
	}
}

// seedReady injects k completed invocation gathers into thread 0's POA, as
// routeRequest would after the last client header arrived.
func seedReady(p *POA, k int) {
	for i := 0; i < k; i++ {
		key := invKey{"agree-binding", uint32(i)}
		p.gathers[key] = &gather{reqs: map[int32]*pgiop.Request{0: agreementRequest(uint32(i))}}
		p.ready = append(p.ready, key)
	}
}

// BenchmarkDispatchAgreement times one collective phase dispatching k
// completed SPMD invocations across p threads. No transport is involved:
// the requests are seeded directly, so ns/op and allocs/op measure the
// agreement broadcast and decision decode alone.
func BenchmarkDispatchAgreement(b *testing.B) {
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			benchAgreement(b, p, 3)
		})
	}
}

func benchAgreement(b *testing.B, threads, k int) {
	b.Helper()
	g := rts.NewChanGroup("agree", threads)
	iface := agreementIface()
	nop := ServantFunc(func(ctx *Context, op string, in []any) (any, []any, error) {
		return nil, nil, nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(func(th rts.Thread) {
		p := New(th, nil, nil)
		p.objects["agree-1"] = newEntry(iface, nop, true)
		for i := 0; i < b.N; i++ {
			if th.Rank() == 0 {
				seedReady(p, k)
			}
			if n := p.collectivePhase(true); n != k {
				panic(fmt.Sprintf("dispatched %d of %d decisions", n, k))
			}
		}
	})
}
