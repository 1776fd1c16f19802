package rts

import (
	"fmt"
	"testing"
)

// benchP is the thread-count sweep for the collective benchmarks: the tree
// algorithms scale logarithmically in P, which the spread makes visible in
// ns/op.
var benchP = []int{4, 16, 64}

// runCollective spawns a persistent group and times b.N back-to-back
// collectives on every thread (the group launch is amortized over b.N).
func runCollective(b *testing.B, p int, body func(th Thread, payload []byte)) {
	b.Helper()
	g := NewChanGroup("bench", p)
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(func(th Thread) {
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = byte(th.Rank())
		}
		for i := 0; i < b.N; i++ {
			body(th, payload)
		}
	})
}

func BenchmarkBcast(b *testing.B) {
	for _, p := range benchP {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			runCollective(b, p, func(th Thread, payload []byte) {
				var d []byte
				if th.Rank() == 0 {
					d = payload
				}
				Bcast(th, 0, d)
			})
		})
	}
}

func BenchmarkAllGather(b *testing.B) {
	for _, p := range benchP {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			runCollective(b, p, func(th Thread, payload []byte) {
				AllGather(th, payload)
			})
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, p := range benchP {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			runCollective(b, p, func(th Thread, _ []byte) {
				th.Barrier()
			})
		})
	}
}
