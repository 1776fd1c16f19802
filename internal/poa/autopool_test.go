package poa_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// poolResizes reads poa_dispatch_pool_resizes_total.
func poolResizes() uint64 { return counterValue("poa_dispatch_pool_resizes_total") }

// TestAutoDispatchPoolGrowsAndShrinks drives the self-sizing dispatch pool
// through its whole regime: it starts at min, doubles under a sustained
// backlog of slow single-object invocations, and decays back to min after
// the idle window — all observed from the POA's owning thread, where every
// pool operation lives. Run under -race this also exercises the
// retirement-pill shutdown of surplus workers. The same burst/idle schedule
// against min == max must never resize: that is the fixed-width pool.
func TestAutoDispatchPoolGrowsAndShrinks(t *testing.T) {
	peak, final, resizes, conc := runPoolSchedule(t, 1, 8)
	// Twelve 1ms-holding clients against one starting worker must back the
	// queue up past the 2x growth threshold.
	if peak < 2 {
		t.Fatalf("pool peaked at %d workers; controller never grew", peak)
	}
	if final != 1 {
		t.Fatalf("pool settled at %d workers after idling, want min=1", final)
	}
	if resizes < 2 {
		t.Fatalf("%d resizes counted for a pool that grew and shrank", resizes)
	}
	if conc < 2 {
		t.Fatalf("peak servant concurrency %d; grown pool did not pipeline", conc)
	}

	peak, final, resizes, _ = runPoolSchedule(t, 4, 4)
	if peak != 4 || final != 4 || resizes != 0 {
		t.Fatalf("fixed pool: peak %d, final %d workers, %d resizes; want 4, 4, 0", peak, final, resizes)
	}
}

// runPoolSchedule serves a burst of slow invocations and then idles past
// the controller's shrink window on a SetDispatchAuto(min, max) pool. It
// returns the peak and final worker counts, the resize-counter delta, and
// the servant's peak concurrency.
func runPoolSchedule(t *testing.T, min, max int) (peakWorkers, finalWorkers int64, resizes uint64, conc int64) {
	t.Helper()
	const clients, calls = 12, 4
	resizes0 := poolResizes()
	fab := nexus.NewInproc()
	g := rts.NewChanGroup("auto-host", 1)
	iorCh := make(chan core.IOR, 1)
	srv := &gaugeServant{}
	done := make(chan struct{})
	var peak, final atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("auto-server"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("gauge-3", gaugeIface(), srv)
		if err != nil {
			t.Error(err)
			return
		}
		p.SetDispatchAuto(min, max)
		if got := p.DispatchWorkers(); got != min {
			t.Errorf("pool started with %d workers, want min=%d", got, min)
		}
		iorCh <- ior
		idle := 0
		for {
			select {
			case <-done:
				idle++
			default:
			}
			p.ProcessRequests()
			if n := int64(p.DispatchWorkers()); n > peak.Load() {
				peak.Store(n)
			}
			// Give the controller ample empty rounds past its idle window so
			// every halving step (max -> ... -> min) can fire.
			if idle > 600 {
				break
			}
			th.Sleep(p.PollInterval)
		}
		final.Store(int64(p.DispatchWorkers()))
		p.SetDispatchAuto(0, 0)
		if got := p.DispatchWorkers(); got != 0 {
			t.Errorf("%d workers after SetDispatchAuto(0, 0), want serial dispatch", got)
		}
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
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.served.Load(); got != clients*calls {
		t.Fatalf("served %d of %d invocations", got, clients*calls)
	}
	return peak.Load(), final.Load(), poolResizes() - resizes0, srv.peak.Load()
}
