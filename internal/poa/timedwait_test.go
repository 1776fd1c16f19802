package poa_test

import (
	"sync"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs/leaktest"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// timedWait is one wall-clock timed wait of the runtime. start builds a fresh
// instance with deadline d (seconds): wait runs the wait and reports whether
// the event it waits for came, deliver causes that event from another
// goroutine, and stop releases what start made.
type timedWait struct {
	name  string
	start func(t *testing.T, d float64) (wait func() bool, deliver func(), stop func())
}

// TestTimedWaitsWakeOnArrival holds every wall-clock timed wait to the one
// wait's contract: with nothing arriving it gives up no earlier than its
// deadline, and with a 10 s deadline it returns one wake-up after the event,
// not at the deadline.
func TestTimedWaitsWakeOnArrival(t *testing.T) {
	const silent = 20 * time.Millisecond
	for _, c := range timedWaits() {
		t.Run(c.name, func(t *testing.T) {
			baseline := leaktest.Baseline()

			wait, _, stop := c.start(t, silent.Seconds())
			start := time.Now()
			if wait() {
				t.Fatal("the wait reported an event nobody caused")
			}
			if took := time.Since(start); took < silent {
				t.Errorf("gave up after %v, before its %v deadline", took, silent)
			}
			stop()

			wait, deliver, stop := c.start(t, 10)
			go func() {
				time.Sleep(2 * time.Millisecond)
				deliver()
			}()
			start = time.Now()
			if !wait() {
				t.Fatal("the event never ended the wait")
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("returned %v after the event was caused, not on its arrival", took)
			}
			stop()

			leaktest.Check(t, baseline)
		})
	}
}

func timedWaits() []timedWait {
	return []timedWait{
		{"nexus.Waiter", func(t *testing.T, d float64) (func() bool, func(), func()) {
			fab := nexus.NewInproc()
			a, b := fab.NewEndpoint("a"), fab.NewEndpoint("b")
			w := nexus.NewWaiter()
			w.Watch(b)
			return func() bool {
					for at := w.Elapsed() + d; ; w.WaitUntil(at) {
						if _, ok, _ := b.Poll(); ok {
							return true
						}
						if w.Elapsed() >= at {
							return false
						}
					}
				}, func() { _ = a.Send(b.Addr(), []byte("x")) },
				func() { a.Close(); b.Close() }
		}},
		{"rts.RecvTimeout/ChanGroup", func(t *testing.T, d float64) (func() bool, func(), func()) {
			g := rts.NewChanGroup("tw", 2)
			return recvTimeoutWait(g.Thread(1), d), func() { g.Thread(0).Send(1, 5, nil) }, func() {}
		}},
		{"rts.RecvTimeout/JoinTCP", func(t *testing.T, d float64) (func() bool, func(), func()) {
			ths := joinTCP(t, 2, "127.0.0.1:29781")
			return recvTimeoutWait(ths[1], d), func() { ths[0].Send(1, 5, nil) },
				func() { ths[0].Close(); ths[1].Close() }
		}},
		{"Cell.WaitTimeout/pump", func(t *testing.T, d float64) (func() bool, func(), func()) {
			s := newIdleEchoServer(t)
			b := s.bind(t)
			return func() bool {
				c, err := b.InvokeNB("shout", []any{"x", nil})
				if err != nil {
					t.Fatal(err)
				}
				return c.WaitTimeout(d)
			}, s.serve, s.stop
		}},
		{"Cell.WaitTimeout/pumpless", func(t *testing.T, d float64) (func() bool, func(), func()) {
			c := future.NewCell()
			return func() bool { return c.WaitTimeout(d) }, func() { c.Resolve(nil, nil) }, func() {}
		}},
		{"ORB deadline", func(t *testing.T, d float64) (func() bool, func(), func()) {
			s := newIdleEchoServer(t)
			b := s.bind(t)
			b.SetDeadline(d)
			return func() bool {
				_, err := b.Invoke("shout", []any{"x", nil})
				return err == nil
			}, s.serve, s.stop
		}},
		{"POA.CollectDeadline", collectDeadlineWait},
	}
}

// recvTimeoutWait is rts.RecvTimeout on th for a tag-5 message from rank 0.
func recvTimeoutWait(th rts.Thread, d float64) func() bool {
	return func() bool {
		_, ok := rts.RecvTimeout(th, 0, 5, d)
		return ok
	}
}

// joinTCP bootstraps an n-rank TCP program with its coordinator at coord.
func joinTCP(t *testing.T, n int, coord string) []*rts.TCPThread {
	t.Helper()
	ths := make([]*rts.TCPThread, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range ths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ths[r], errs[r] = rts.JoinTCP("tw-tcp", r, n, coord, 10*time.Second)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return ths
}

// idleEchoServer is an echo object registered but not yet served: its
// requests wait in the endpoint until serve starts the adapter's loop.
type idleEchoServer struct {
	fab  *nexus.Inproc
	p    *poa.POA
	ior  core.IOR
	once sync.Once
	done chan struct{}
}

func newIdleEchoServer(t *testing.T) *idleEchoServer {
	t.Helper()
	s := &idleEchoServer{fab: nexus.NewInproc(), done: make(chan struct{})}
	s.p = poa.New(rts.NewChanGroup("tw-srv", 1).Thread(0), core.NewRouter(s.fab.NewEndpoint("srv")), nil)
	s.p.PollInterval = 50e-6
	var err error
	if s.ior, err = s.p.RegisterSingle("tw-echo", echoIface(), &echoServant{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// bind returns a client binding on a thread-less ORB of its own.
func (s *idleEchoServer) bind(t *testing.T) *core.Binding {
	t.Helper()
	b, err := newClient(s.fab, nil).Bind(s.ior, echoIface())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serve starts the adapter's loop, once.
func (s *idleEchoServer) serve() {
	s.once.Do(func() {
		go func() {
			defer close(s.done)
			s.p.ImplIsReady()
		}()
	})
}

// stop serves whatever is still queued and shuts the adapter down.
func (s *idleEchoServer) stop() {
	s.serve()
	b, err := newClient(s.fab, nil).Bind(s.ior, echoIface())
	if err == nil {
		err = b.Shutdown("timed wait done")
	}
	if err != nil {
		panic(err)
	}
	<-s.done
}

// heldEP passes its first frame and holds the rest until release: a client
// whose argument segments follow its request header late.
type heldEP struct {
	nexus.Endpoint
	mu       sync.Mutex
	pass     int
	released bool
	held     []heldFrame
}

type heldFrame struct {
	to   nexus.Addr
	data []byte
}

func (e *heldEP) Send(to nexus.Addr, data []byte) error { return e.SendV(to, data) }

func (e *heldEP) SendV(to nexus.Addr, bufs ...[]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pass > 0 || e.released {
		e.pass--
		return e.Endpoint.SendV(to, bufs...)
	}
	var data []byte
	for _, b := range bufs {
		data = append(data, b...)
	}
	e.held = append(e.held, heldFrame{to, data})
	return nil
}

// release sends what was held and passes everything from now on.
func (e *heldEP) release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.released = true
	for _, f := range e.held {
		_ = e.Endpoint.Send(f.to, f.data)
	}
	e.held = nil
}

// collectDeadlineWait is an SPMD server's wait for a distributed argument's
// segments, bounded by its CollectDeadline: the client's header arrives, its
// segments are held back until deliver. The wait ends in the reply — the
// result once the segments came, the collection's error if they did not.
func collectDeadlineWait(t *testing.T, d float64) (func() bool, func(), func()) {
	fab := nexus.NewInproc()
	sep := fab.NewEndpoint("cd-srv")
	p := poa.New(rts.NewChanGroup("cd-srv", 1).Thread(0), core.NewRouter(sep), nil)
	p.PollInterval = 50e-6
	p.CollectDeadline = d
	ior, err := p.RegisterSPMD("cd-scaler", scaleIface(), scaleServant{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ImplIsReady()
	}()

	cth := rts.NewChanGroup("cd-cli", 1).Thread(0)
	cep := &heldEP{Endpoint: fab.NewEndpoint("cd-cli"), pass: 1}
	b, err := core.NewORB(core.NewRouter(cep), cth, nil).SPMDBind(ior, scaleIface())
	if err != nil {
		t.Fatal(err)
	}
	wait := func() bool {
		x := dseq.New[float64](cth, 48, dist.BlockTemplate(), dseq.Float64Codec{})
		y := dseq.New[float64](cth, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		_, err := b.Invoke("scale", []any{2.0, x, y})
		return err == nil
	}
	stop := func() {
		sb, err := newClient(fab, nil).SPMDBind(ior, scaleIface())
		if err == nil {
			err = sb.Shutdown("timed wait done")
		}
		if err != nil {
			panic(err)
		}
		<-done
	}
	return wait, cep.release, stop
}
