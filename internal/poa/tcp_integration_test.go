package poa_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// TestFullyDistributedTCPStack is the capstone integration: an SPMD server
// whose computing threads use the TCP run-time system (distinct address
// spaces) AND whose ORB endpoints are TCP, driven by a TCP SPMD client —
// every byte of the system crosses a socket.
func TestFullyDistributedTCPStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP stack; skipped with -short")
	}
	const S, C, N = 3, 2, 5000
	serverCoord := "127.0.0.1:29751"
	clientCoord := "127.0.0.1:29761"
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup

	// --- Server program: S ranks over TCP RTS + TCP pgiop endpoints. ----
	for r := 0; r < S; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, err := rts.JoinTCP("server-host", rank, S, serverCoord, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Close()
			ep, err := nexus.NewTCPEndpoint("")
			if err != nil {
				t.Error(err)
				return
			}
			adapter := poa.New(th, core.NewRouter(ep), nil)
			adapter.PollInterval = 100e-6
			ior, err := adapter.RegisterSPMD("tcp-scaler", scaleIface(), scaleServant{})
			if err != nil {
				t.Error(err)
				return
			}
			if rank == 0 {
				iorCh <- ior
			}
			adapter.ImplIsReady()
		}(r)
	}
	ior := <-iorCh

	// --- Client program: C ranks over TCP RTS + TCP pgiop endpoints. ----
	var cwg sync.WaitGroup
	for r := 0; r < C; r++ {
		cwg.Add(1)
		go func(rank int) {
			defer cwg.Done()
			th, err := rts.JoinTCP("client-host", rank, C, clientCoord, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Close()
			ep, err := nexus.NewTCPEndpoint("")
			if err != nil {
				t.Error(err)
				return
			}
			orb := core.NewORB(core.NewRouter(ep), th, nil)
			b, err := orb.SPMDBind(ior, scaleIface())
			if err != nil {
				t.Error(err)
				return
			}
			x := dseq.New[float64](th, N, dist.BlockTemplate(), dseq.Float64Codec{})
			for i := range x.Local() {
				x.Local()[i] = float64(x.DLayout().GlobalIndex(th.Rank(), i))
			}
			y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
			vals, err := b.Invoke("scale", []any{2.0, x, y})
			if err != nil {
				t.Error(err)
				return
			}
			wantSum := float64(N*(N-1)) / 2
			if vals[0] != wantSum {
				t.Errorf("rank %d: sum = %v, want %v", rank, vals[0], wantSum)
			}
			yd := dseq.AsFloat64(vals[1].(dseq.Distributed))
			for i, v := range yd.Local() {
				g := yd.DLayout().GlobalIndex(th.Rank(), i)
				if v != 2*float64(g) {
					t.Errorf("rank %d: y[%d] = %v", rank, g, v)
					break
				}
			}
			th.Barrier()
			if rank == 0 {
				if err := b.Shutdown(fmt.Sprintf("done after %d elements", N)); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	cwg.Wait()
	wg.Wait()
}

// TestTCPServerClosesRightAfterImplIsReady holds ImplIsReady to its promise —
// every accepted request is answered before control returns — over a
// transport that may leave a reply in its pending batch when SendV returns
// (nexus' deferred flush, DESIGN.md §12): the server program closes its
// endpoint the moment ImplIsReady returns, and Close must put those replies
// on the wire first. 64 pipelined calls, then Shutdown on the same
// connection; all 64 futures resolve with their own answers.
func TestTCPServerClosesRightAfterImplIsReady(t *testing.T) {
	const calls = 64
	sep, err := nexus.NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	iorCh := make(chan core.IOR, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer sep.Close()
		adapter := poa.New(rts.NewChanGroup("srv", 1).Thread(0), core.NewRouter(sep), nil)
		adapter.SetDispatchAuto(4, 4)
		ior, err := adapter.RegisterSingle("gauge-1", gaugeIface(), poa.ServantFunc(
			func(_ *poa.Context, _ string, in []any) (any, []any, error) {
				return int32(len(in[0].(string))), []any{in[0]}, nil
			}))
		if err != nil {
			t.Error(err)
			close(iorCh)
			return
		}
		iorCh <- ior
		adapter.ImplIsReady()
	}()
	ior, ok := <-iorCh
	if !ok {
		return
	}
	cep, err := nexus.NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer cep.Close()
	b, err := core.NewORB(core.NewRouter(cep), nil, nil).Bind(ior, gaugeIface())
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]*future.Cell, calls)
	for i := range cells {
		if cells[i], err = b.InvokeNB("hold", []any{fmt.Sprint("call-", i), nil}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Shutdown("close right behind the replies"); err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if !c.WaitTimeout(10) {
			t.Fatalf("call %d of %d never answered: its reply was lost when the server closed", i, calls)
		}
		vals, err := c.Values()
		if want := fmt.Sprint("call-", i); err != nil || vals[1] != want {
			t.Fatalf("call %d: got %v, %v", i, vals, err)
		}
	}
	<-served
}
