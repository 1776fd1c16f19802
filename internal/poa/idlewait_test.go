package poa_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// loggedWait is one timed wait of an adapter's thread: its instant, and the
// adapter's dispatch workers as it began.
type loggedWait struct {
	at      float64
	workers int
}

// waitLog is a computing thread that logs each timed wait it parks in. The
// pool width is read inside the wait, on the adapter's owning thread, where
// every pool operation lives.
type waitLog struct {
	rts.Thread
	p     *poa.POA // set before the adapter's loop starts
	mu    sync.Mutex
	waits []loggedWait
}

func (w *waitLog) WaitUntil(at float64) {
	lw := loggedWait{at, w.p.DispatchWorkers()}
	w.mu.Lock()
	w.waits = append(w.waits, lw)
	w.mu.Unlock()
	w.Thread.WaitUntil(at)
}

// snapshot copies the log.
func (w *waitLog) snapshot() []loggedWait {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]loggedWait(nil), w.waits...)
}

// until polls the log (bounded) until cond holds of it, and returns it.
func (w *waitLog) until(t *testing.T, what string, cond func([]loggedWait) bool) []loggedWait {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if log := w.snapshot(); cond(log) {
			return log
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; %d waits logged", what, len(w.snapshot()))
		}
	}
}

// loggedServer is a single gauge object served under ImplIsReady, on an
// in-process thread whose timed waits are logged.
type loggedServer struct {
	fab  *nexus.Inproc
	th   *waitLog
	ior  core.IOR
	done chan struct{}
}

// startLoggedServer starts the adapter's loop after setup has configured it.
func startLoggedServer(t *testing.T, setup func(*poa.POA)) *loggedServer {
	t.Helper()
	s := &loggedServer{
		fab:  nexus.NewInproc(),
		th:   &waitLog{Thread: rts.NewChanGroup("idle-srv", 1).Thread(0)},
		done: make(chan struct{}),
	}
	p := poa.New(s.th, core.NewRouter(s.fab.NewEndpoint("srv")), nil)
	p.PollInterval = 20e-6
	var err error
	if s.ior, err = p.RegisterSingle("idle-gauge", gaugeIface(), &gaugeServant{}); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(p)
	}
	s.th.p = p
	go func() {
		defer close(s.done)
		p.ImplIsReady()
	}()
	t.Cleanup(func() {
		b, err := newClient(s.fab, nil).Bind(s.ior, gaugeIface())
		if err == nil {
			err = b.Shutdown("idle wait done")
		}
		if err != nil {
			t.Error(err)
		}
		<-s.done
	})
	return s
}

// burst starts clients callers at once; each makes calls blocking calls,
// which the gauge servant holds 1 ms apiece.
func (s *loggedServer) burst(t *testing.T, clients, calls int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b, err := newClient(s.fab, nil).Bind(s.ior, gaugeIface())
			for i := 0; err == nil && i < calls; i++ {
				msg := fmt.Sprintf("c%d-i%d", c, i)
				var vals []any
				if vals, err = b.Invoke("hold", []any{msg, nil}); err == nil && vals[1] != msg {
					err = fmt.Errorf("call %s echoed %v", msg, vals)
				}
			}
			errs <- err
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimedWaitsIdleAdapterParksUntilAFrame: on a wall clock an idle
// adapter's wait has no instant — it parks until a frame — unless something
// is due at one: the next round of an AgreementDeadline's liveness barrier,
// or the shrink instant of a dispatch pool above its min.
func TestTimedWaitsIdleAdapterParksUntilAFrame(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		s := startLoggedServer(t, nil)
		s.burst(t, 1, 2)
		log := s.th.until(t, "two idle waits", func(l []loggedWait) bool { return len(l) >= 2 })
		for i, w := range log {
			if !math.IsInf(w.at, 1) {
				t.Fatalf("idle wait %d of %d parked until %g, not until a frame", i, len(log), w.at)
			}
		}
	})

	t.Run("agreement deadline", func(t *testing.T) {
		s := startLoggedServer(t, func(p *poa.POA) { p.AgreementDeadline = 10 })
		log := s.th.until(t, "three idle waits", func(l []loggedWait) bool { return len(l) >= 3 })
		for i, w := range log {
			if math.IsInf(w.at, 1) {
				t.Fatalf("idle wait %d of %d has no instant with AgreementDeadline set", i, len(log))
			}
		}
	})

	t.Run("pool above min", func(t *testing.T) {
		s := startLoggedServer(t, func(p *poa.POA) { p.SetDispatchAuto(1, 8) })
		s.burst(t, 12, 4)
		log := s.th.until(t, "an idle wait with the pool back at min", func(l []loggedWait) bool {
			return len(l) > 0 && l[len(l)-1].workers == 1
		})
		above := 0
		for i, w := range log {
			if w.workers > 1 {
				above++
				if math.IsInf(w.at, 1) {
					t.Fatalf("idle wait %d of %d has no instant with %d workers above min 1", i, len(log), w.workers)
				}
			}
		}
		if above == 0 {
			t.Fatal("the burst never left the pool above min while the adapter idled")
		}
	})
}

// TestPoolGrowsAndShrinksUnderImplIsReady: a pool a burst has grown returns
// to min under ImplIsReady with no further traffic — the idle wait itself
// wakes the adapter for each halving — and then parks until a frame.
func TestPoolGrowsAndShrinksUnderImplIsReady(t *testing.T) {
	resizes0 := poolResizes()
	s := startLoggedServer(t, func(p *poa.POA) { p.SetDispatchAuto(1, 8) })
	s.burst(t, 12, 4)
	log := s.th.until(t, "the pool back at min", func(l []loggedWait) bool {
		return len(l) > 0 && l[len(l)-1].workers == 1
	})
	peak := 0
	for _, w := range log {
		peak = max(peak, w.workers)
	}
	if peak < 2 {
		t.Fatalf("pool peaked at %d workers; the burst never grew it", peak)
	}
	if got := poolResizes() - resizes0; got < 2 {
		t.Fatalf("%d resizes counted for a pool that grew and shrank", got)
	}
	if last := log[len(log)-1]; !math.IsInf(last.at, 1) {
		t.Fatalf("the adapter, idle at min, parked until %g, not until a frame", last.at)
	}
}
