package dseq

import (
	"fmt"
	"math/rand"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// randTemplate draws one of the four distribution families with random
// parameters — the layout space chunk boundaries must be indifferent to.
func randTemplate(rng *rand.Rand, p int) dist.Template {
	switch rng.Intn(4) {
	case 0:
		return dist.BlockTemplate()
	case 1:
		return dist.CyclicTemplate()
	case 2:
		return dist.CollapsedOn(rng.Intn(p))
	default:
		w := make([]float64, p)
		for j := range w {
			w[j] = rng.Float64()*4 + 0.1
		}
		return dist.Proportions(w...)
	}
}

// TestChunkedExchangeMatchesUnchunked: a chunked redistribution delivers
// exactly what whole-move messages deliver,
// for random layout pairs, random thread counts in 2..16, and chunk sizes
// including one element per chunk and chunks larger than the whole payload.
// Every element is its global index, so correctness is equality with the
// ground truth both paths must reproduce bit for bit.
func TestChunkedExchangeMatchesUnchunked(t *testing.T) {
	defer func(old int) { exchangeChunkBytes = old }(exchangeChunkBytes)
	rng := rand.New(rand.NewSource(0x5ee1))
	// 8 is one float64 per chunk; 100 lands mid-run and unaligned to
	// element size; 1<<20 exceeds every payload here, so each move is one
	// message (the unchunked baseline).
	chunks := []int{8, 100, 4 << 10, 1 << 20}
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(15)
		n := 1 + rng.Intn(2500)
		srcT := randTemplate(rng, p)
		dstT := randTemplate(rng, p)
		for _, cb := range chunks {
			exchangeChunkBytes = cb
			bad := make(chan string, p)
			rts.NewChanGroup("stream", p).Run(func(th rts.Thread) {
				s := New[float64](th, n, srcT, Float64Codec{})
				fill(s)
				s.Redistribute(dstT)
				for loc, v := range s.Local() {
					if v != float64(s.Layout().GlobalIndex(th.Rank(), loc)) {
						select {
						case bad <- fmt.Sprintf("trial %d chunk %d p=%d n=%d: rank %d local[%d] = %v",
							trial, cb, p, n, th.Rank(), loc, v):
						default:
						}
						return
					}
				}
			})
			if len(bad) > 0 {
				t.Fatal(<-bad)
			}
		}
	}
}

// TestChunkedExchangeOnSimBackend runs the same equivalence on the
// virtual-time fabric: chunked messaging must stay correct under the sim's
// deterministic single-threaded scheduling and by-reference delivery.
func TestChunkedExchangeOnSimBackend(t *testing.T) {
	defer func(old int) { exchangeChunkBytes = old }(exchangeChunkBytes)
	for _, cb := range []int{1 << 20, 8, 4 << 10} {
		exchangeChunkBytes = cb
		sim := vtime.NewSim()
		host := simnet.NewHost("h", 1, 4, vtime.Microseconds(10), 1e8)
		g := rts.NewSimGroup(sim, host, 4)
		g.Spawn("w", func(th rts.Thread) {
			s := New[float64](th, 10_000, dist.BlockTemplate(), Float64Codec{})
			fill(s)
			s.Redistribute(dist.CyclicTemplate())
			checkGlobal(t, s)
			s.Redistribute(dist.CollapsedOn(2))
			checkGlobal(t, s)
		})
		if _, err := sim.Run(); err != nil {
			t.Fatalf("chunk %d: %v", cb, err)
		}
	}
}
