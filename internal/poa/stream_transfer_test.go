package poa_test

import (
	"fmt"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// runStreamedAxpy runs one SPMD axpy round trip with the given chunk pin on
// both the ORB (in-argument) and POA (out-result) segment senders, and
// verifies every element on every client thread. Tiny values force many
// chunks per move; one larger than the payload ships each move whole.
func runStreamedAxpy(t *testing.T, n, servers, clients, chunkBytes int) {
	t.Helper()
	fab := nexus.NewInproc()
	serverG := rts.NewChanGroup("ssrv-g", servers)
	clientG := rts.NewChanGroup("scli-g", clients)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverG.Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("ssrv%d-%d", chunkBytes, th.Rank())))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			p.StreamChunkBytes = chunkBytes
			ior, err := p.RegisterSPMD("stream-axpy", axpyIface(), axpyServant{})
			if err != nil {
				t.Error(err)
				return
			}
			if th.Rank() == 0 {
				iorCh <- ior
			}
			p.ImplIsReady()
		})
	}()
	ior := <-iorCh
	clientG.Run(func(th rts.Thread) {
		r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("scli%d-%d", chunkBytes, th.Rank())))
		orb := core.NewORB(r, th, nil)
		orb.StreamChunkBytes = chunkBytes
		b, err := orb.SPMDBind(ior, axpyIface())
		if err != nil {
			t.Error(err)
			return
		}
		x := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		y := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		for loc := range x.Local() {
			g := float64(x.Layout().GlobalIndex(th.Rank(), loc))
			x.Local()[loc] = g
			y.Local()[loc] = 1000 * g
		}
		z := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		vals, err := b.Invoke("axpy", []any{2.0, x, y, z})
		if err != nil {
			panic(err)
		}
		zd := dseq.AsFloat64(vals[0].(dseq.Distributed))
		for loc, v := range zd.Local() {
			g := float64(zd.DLayout().GlobalIndex(th.Rank(), loc))
			if want := 2*g + 1000*g; v != want {
				panic(fmt.Sprintf("chunk %d: z[%v] = %v, want %v", chunkBytes, g, v, want))
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			b.Shutdown("done")
		}
	})
	wg.Wait()
}

// TestStreamedTransferMatchesStaged runs the streamed segment pipeline
// across chunk sizes that slice the same payload very differently: one
// element per chunk, a run-misaligned size, one that chunks only the larger
// moves, and one larger than any payload (every move whole, in one frame).
// Every variant must deliver identical, fully verified results on uneven
// server/client thread counts.
func TestStreamedTransferMatchesStaged(t *testing.T) {
	const n = 3001
	for _, chunk := range []int{8, 100, 4 << 10, 1 << 26} {
		runStreamedAxpy(t, n, 4, 3, chunk)
	}
}

// TestStreamedTransferChunkMetrics forces many chunks through one transfer
// and checks the observability contract: the chunk counter advances and the
// peak-residency watermark stays at O(chunk), far under the payload size.
func TestStreamedTransferChunkMetrics(t *testing.T) {
	const n = 20_000 // 160 KB of doubles end to end
	const chunk = 1 << 10
	before := core.StreamChunksTotal()
	core.ResetStreamPeak()
	runStreamedAxpy(t, n, 2, 2, chunk)
	sent := core.StreamChunksTotal() - before
	// Three distributed parameters cross 2x2 thread pairs in ~1 KiB chunks:
	// far more frames than the 12 whole moves.
	if sent < 100 {
		t.Fatalf("chunk counter advanced by %d; expected a chunked transfer", sent)
	}
	peak := core.StreamPeakBytes()
	if peak <= 0 {
		t.Fatal("peak buffer watermark not recorded")
	}
	if peak > 2*chunk {
		t.Fatalf("peak encoder residency %d bytes; want <= 2x the %d-byte chunk", peak, chunk)
	}
}
