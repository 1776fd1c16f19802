package dseq

import (
	"fmt"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/rts"
)

// TestEncodeDecodeRunsAllocFree pins the segment-transfer hot path: with a
// warm encoder and decoder, shipping runs out of one distributed sequence
// and into another allocates nothing on either side.
func TestEncodeDecodeRunsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	runSPMD(1, func(th rts.Thread) {
		src := New[float64](th, 4096, dist.BlockTemplate(), Float64Codec{})
		dst := New[float64](th, 4096, dist.BlockTemplate(), Float64Codec{})
		fill(src)
		runs := []dist.Run{{Global: 0, Len: 4096, SrcOff: 0, DstOff: 0}}
		e := cdr.GetEncoder(8 * 4096)
		defer e.Release()
		d := cdr.NewDecoder(nil)
		allocs := testing.AllocsPerRun(50, func() {
			e.Reset()
			src.EncodeRuns(e, runs)
			d.Reset(e.Bytes())
			if err := dst.DecodeRuns(d, runs); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			panic(fmt.Sprintf("run transfer: %v allocs/run, want 0", allocs))
		}
		for i, v := range dst.Local() {
			if v != float64(i) {
				panic(fmt.Sprintf("element %d corrupted: %v", i, v))
			}
		}
	})
}

// TestExchangeAllocBound pins the redistribution messaging path: pooled
// decoders (and, on copying backends, pooled encoders) keep the per-round
// allocation count small and independent of payload size. The bound is a
// regression tripwire, not an exact count — it fails if the exchange loop
// regresses to cold per-message codec state.
func TestExchangeAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const iters = 30
	// Many small chunks make per-message codec state the dominant cost, so
	// a regression from pooled to cold decoders (one allocation per
	// received chunk) moves the count far past the bound.
	defer func(old int) { exchangeChunkBytes = old }(exchangeChunkBytes)
	exchangeChunkBytes = 1 << 10
	runSPMD(2, func(th rts.Thread) {
		block := dist.BlockTemplate().Layout(8192, 2)
		cyclic := dist.CyclicTemplate().Layout(8192, 2)
		s := New[float64](th, 8192, dist.BlockTemplate(), Float64Codec{})
		fill(s)
		round := func() {
			s.RedistributeTo(cyclic)
			s.RedistributeTo(block)
		}
		// AllocsPerRun counts only the measuring goroutine; the exchange is
		// collective, so rank 1 runs the same iterations unmeasured
		// (AllocsPerRun calls its body runs+1 times, once to warm up).
		if th.Rank() == 0 {
			allocs := testing.AllocsPerRun(iters, round)
			// Baseline is ~267 (dominated by per-chunk transport frames and
			// the by-reference encoder buffers chan delivery requires); a
			// cold decoder per received chunk alone adds ~64.
			if allocs > 300 {
				panic(fmt.Sprintf("exchange: %v allocs per redistribution round, want <= 300", allocs))
			}
		} else {
			for i := 0; i <= iters; i++ {
				round()
			}
		}
		checkGlobal2(s)
	})
}

// checkGlobal2 panics (goroutine-safe for SPMD bodies) if any element
// diverged from its global index.
func checkGlobal2(s *DSeq[float64]) {
	r := s.Rank()
	for loc, v := range s.Local() {
		if v != float64(s.Layout().GlobalIndex(r, loc)) {
			panic(fmt.Sprintf("rank %d local[%d] = %v", r, loc, v))
		}
	}
}
