package poa_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// gaugeServant counts how many invocations are in flight at once — the
// observable difference between serial and pipelined dispatch.
type gaugeServant struct {
	inflight atomic.Int64
	peak     atomic.Int64
	served   atomic.Int64
}

func (s *gaugeServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	cur := s.inflight.Add(1)
	for {
		p := s.peak.Load()
		if cur <= p || s.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(time.Millisecond) // hold the slot so overlap is observable
	s.inflight.Add(-1)
	s.served.Add(1)
	return int32(len(in[0].(string))), []any{in[0].(string)}, nil
}

func gaugeIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "gauge",
		Ops: []core.Operation{{
			Name: "hold",
			Params: []core.Param{
				core.NewParam("s", core.In, typecode.TCString),
				core.NewParam("echo", core.Out, typecode.TCString),
			},
			Result: typecode.TCLong,
		}},
	}
}

// TestPooledDispatchManyClients hammers one single object from many client
// goroutines with the dispatch pool enabled: every reply must match its
// request (completion is out of order), and the gauge must observe real
// overlap. Run under -race this also exercises the pool's sharing rules.
func TestPooledDispatchManyClients(t *testing.T) {
	const clients, calls, workers = 8, 6, 4
	fab := nexus.NewInproc()
	g := rts.NewChanGroup("pool-host", 1)
	iorCh := make(chan core.IOR, 1)
	srv := &gaugeServant{}
	var serverWG sync.WaitGroup
	serverWG.Add(1)
	go func() {
		defer serverWG.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("pool-server"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("gauge-1", gaugeIface(), srv)
		if err != nil {
			t.Error(err)
			return
		}
		p.SetDispatchAuto(workers, workers)
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior := <-iorCh

	var clientWG sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			orb := newClient(fab, nil)
			b, err := orb.Bind(ior, gaugeIface())
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("c%d-i%d", c, i)
				vals, err := b.Invoke("hold", []any{msg, nil})
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %v", c, i, err)
					return
				}
				if vals[0] != int32(len(msg)) || vals[1] != msg {
					errs <- fmt.Errorf("client %d call %d got %v", c, i, vals)
					return
				}
			}
		}(c)
	}
	clientWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	orb := newClient(fab, nil)
	b, _ := orb.Bind(ior, gaugeIface())
	if err := b.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	serverWG.Wait()
	if got := srv.served.Load(); got != clients*calls {
		t.Fatalf("served %d of %d invocations", got, clients*calls)
	}
	// Eight clients block on a four-worker pool holding each slot 1ms;
	// dispatch that never overlaps would leave the peak at 1.
	if srv.peak.Load() < 2 {
		t.Fatalf("peak concurrency %d; dispatch pool did not pipeline", srv.peak.Load())
	}
}

// axpyIface carries two distributed in-arguments and one distributed out,
// so one invocation drives three independent segment streams per
// (binding, seqno, param) key.
func axpyIface() *core.InterfaceDef {
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
	return &core.InterfaceDef{
		Name: "axpy",
		Ops: []core.Operation{{
			Name: "axpy",
			Params: []core.Param{
				core.NewParam("k", core.In, typecode.TCDouble),
				core.NewParam("x", core.In, dv),
				core.NewParam("y", core.In, dv),
				core.NewParam("z", core.Out, dv),
			},
		}},
	}
}

type axpyServant struct{}

func (axpyServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	k := in[0].(float64)
	x := dseq.AsFloat64(in[1].(dseq.Distributed))
	y := dseq.AsFloat64(in[2].(dseq.Distributed))
	z := dseq.NewFromLayout[float64](ctx.Thread, x.DLayout(), dseq.Float64Codec{})
	for i, v := range x.Local() {
		z.Local()[i] = k*v + y.Local()[i]
	}
	return nil, []any{z}, nil
}

// TestParallelTransferInterleavedStreams runs an SPMD axpy with the
// parallel fan-out enabled on both sides, so segments of the two in
// parameters and the out parameter interleave across every client/server
// thread pair. Distinct (binding, seqno, param) streams must reassemble
// independently; repeated invocations reuse the schedule cache.
func TestParallelTransferInterleavedStreams(t *testing.T) {
	const N, S, C = 257, 4, 3
	fab := nexus.NewInproc()
	serverG := rts.NewChanGroup("axpy-srv", S)
	clientG := rts.NewChanGroup("axpy-cli", C)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverG.Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("asrv%d", th.Rank())))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			p.TransferWorkers = 4
			ior, err := p.RegisterSPMD("axpy-1", axpyIface(), axpyServant{})
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
		r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("acli%d", th.Rank())))
		orb := core.NewORB(r, th, nil)
		orb.TransferWorkers = 4
		b, err := orb.SPMDBind(ior, axpyIface())
		if err != nil {
			t.Error(err)
			return
		}
		for round := 0; round < 3; round++ {
			x := dseq.New[float64](th, N, dist.BlockTemplate(), dseq.Float64Codec{})
			y := dseq.New[float64](th, N, dist.BlockTemplate(), dseq.Float64Codec{})
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
					panic(fmt.Sprintf("round %d: z[%v] = %v, want %v", round, g, v, want))
				}
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			b.Shutdown("done")
		}
	})
	wg.Wait()
}

// TestSetDispatchWorkersRestoresSerial flips the pool on and off around
// invocations; both modes must serve correctly from the same POA.
func TestSetDispatchWorkersRestoresSerial(t *testing.T) {
	fab := nexus.NewInproc()
	g := rts.NewChanGroup("toggle-host", 1)
	iorCh := make(chan core.IOR, 1)
	phase := make(chan int) // test -> server: next worker count, closed to stop
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("toggle-server"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("gauge-2", gaugeIface(), &gaugeServant{})
		if err != nil {
			t.Error(err)
			return
		}
		iorCh <- ior
		for {
			select {
			case n, ok := <-phase:
				if !ok {
					p.SetDispatchAuto(0, 0)
					return
				}
				p.SetDispatchAuto(n, n)
			default:
			}
			p.ProcessRequests()
			th.Sleep(p.PollInterval)
		}
	}()
	ior := <-iorCh
	orb := newClient(fab, nil)
	b, err := orb.Bind(ior, gaugeIface())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 0, 3} {
		phase <- n
		vals, err := b.Invoke("hold", []any{"toggle", nil})
		if err != nil || vals[1] != "toggle" {
			t.Fatalf("workers=%d: %v, %v", n, vals, err)
		}
	}
	close(phase)
	wg.Wait()
}
