package poa_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// blockOnceServant parks its first invocation on the gate; later
// invocations return immediately. It is the saturated-server fixture: while
// the first invocation holds the only dispatch worker, every further
// arrival is over the admission watermark.
type blockOnceServant struct {
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
	served  atomic.Int64
}

func (s *blockOnceServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	first := false
	s.once.Do(func() { first = true })
	if first {
		close(s.entered)
		<-s.gate
	}
	s.served.Add(1)
	return int32(1), nil, nil
}

func admissionIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "admission",
		Ops: []core.Operation{{
			Name:       "work",
			Params:     []core.Param{core.NewParam("x", core.In, typecode.TCLong)},
			Result:     typecode.TCLong,
			Idempotent: true,
		}},
	}
}

// startAdmissionServer runs a one-worker single-object server with the
// given admission watermark and returns its IOR, adapter and join func.
func startAdmissionServer(t *testing.T, fab *nexus.Inproc, srv poa.Servant, limit int, hint float64) (core.IOR, *poa.POA, func()) {
	t.Helper()
	g := rts.NewChanGroup("admission-host", 1)
	iorCh := make(chan core.IOR, 1)
	poaCh := make(chan *poa.POA, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		p := poa.New(th, core.NewRouter(fab.NewEndpoint("admission-server")), nil)
		p.PollInterval = 20e-6
		p.SetAdmission(limit, hint)
		ior, err := p.RegisterSingle("admission-1", admissionIface(), srv)
		if err != nil {
			t.Error(err)
			return
		}
		p.SetDispatchAuto(1, 1)
		iorCh <- ior
		poaCh <- p
		p.ImplIsReady()
	}()
	ior, p := <-iorCh, <-poaCh
	return ior, p, wg.Wait
}

// TestShedBoundedTime: a request over the admission watermark must be
// refused in transport time — with the shed carrying the configured hint —
// while the admitted request is still blocked inside the servant. No queue
// wait, no deadline wait.
func TestShedBoundedTime(t *testing.T) {
	fab := nexus.NewInproc()
	srv := &blockOnceServant{gate: make(chan struct{}), entered: make(chan struct{})}
	const hint = 0.02
	ior, p, wait := startAdmissionServer(t, fab, srv, 1, hint)

	// Occupy the only worker.
	var aDone atomic.Bool
	aErr := make(chan error, 1)
	go func() {
		orb := newClient(fab, nil)
		b, err := orb.Bind(ior, admissionIface())
		if err != nil {
			aErr <- err
			return
		}
		_, err = b.Invoke("work", []any{int32(1)})
		aDone.Store(true)
		aErr <- err
	}()
	<-srv.entered

	// The next request is over the watermark: expect an immediate shed.
	orb := newClient(fab, nil)
	b, err := orb.Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = b.Invoke("work", []any{int32(2)})
	elapsed := time.Since(start)

	var shed *core.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-watermark invoke = %v, want *core.ShedError", err)
	}
	if shed.RetryAfter != hint {
		t.Fatalf("shed hint = %v, want %v", shed.RetryAfter, hint)
	}
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("shed error does not unwrap to ErrOverloaded: %v", err)
	}
	// Bounded: the refusal arrived while the admitted request was still
	// blocked — the shed never waited behind it.
	if aDone.Load() {
		t.Fatal("admitted request finished before the shed came back: shed waited in queue")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shed took %v, want transport time", elapsed)
	}
	if got := p.ShedCount(); got != 1 {
		t.Fatalf("ShedCount = %d, want 1", got)
	}

	close(srv.gate)
	if err := <-aErr; err != nil {
		t.Fatalf("admitted invocation failed: %v", err)
	}
	bShut, _ := newClient(fab, nil).Bind(ior, admissionIface())
	bShut.Shutdown("done")
	wait()
}

// TestClientBacksOffPerHint: a retry-armed client that is shed must not
// knock again before the server's RetryAfter hint has elapsed — the hint
// replaces the policy backoff, so the retry lands once the slot is free.
func TestClientBacksOffPerHint(t *testing.T) {
	fab := nexus.NewInproc()
	srv := &blockOnceServant{gate: make(chan struct{}), entered: make(chan struct{})}
	const hint = 0.05
	ior, p, wait := startAdmissionServer(t, fab, srv, 1, hint)

	aErr := make(chan error, 1)
	go func() {
		orb := newClient(fab, nil)
		b, err := orb.Bind(ior, admissionIface())
		if err != nil {
			aErr <- err
			return
		}
		_, err = b.Invoke("work", []any{int32(1)})
		aErr <- err
	}()
	<-srv.entered

	orb := newClient(fab, nil)
	b, err := orb.Bind(ior, admissionIface())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(5)
	b.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1e-3, JitterSeed: 7})

	done := make(chan struct{})
	var elapsed time.Duration
	var invErr error
	go func() {
		defer close(done)
		start := time.Now()
		_, invErr = b.Invoke("work", []any{int32(2)})
		elapsed = time.Since(start)
	}()

	// Once the first attempt has been shed, free the slot; the retry fires
	// after the hint and must succeed.
	for p.ShedCount() == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	close(srv.gate)
	<-done

	if invErr != nil {
		t.Fatalf("retried invocation failed: %v", invErr)
	}
	if elapsed < time.Duration(0.8*hint*float64(time.Second)) {
		t.Fatalf("retry returned after %v, before the %.0fms hint elapsed", elapsed, hint*1000)
	}
	if got := p.ShedCount(); got != 1 {
		t.Fatalf("ShedCount = %d, want exactly 1 (the retry must not have been re-shed)", got)
	}
	if err := <-aErr; err != nil {
		t.Fatalf("admitted invocation failed: %v", err)
	}
	bShut, _ := newClient(fab, nil).Bind(ior, admissionIface())
	bShut.Shutdown("done")
	wait()
}

// TestOnewayShedIsDropped: oneway arrivals over the watermark are dropped
// without a reply — there is nobody to send the refusal to — and still
// count as sheds.
func TestOnewayShedIsDropped(t *testing.T) {
	fab := nexus.NewInproc()
	iface := &core.InterfaceDef{
		Name: "admission",
		Ops: []core.Operation{
			{Name: "work", Params: []core.Param{core.NewParam("x", core.In, typecode.TCLong)}, Result: typecode.TCLong, Idempotent: true},
			{Name: "fire", Params: []core.Param{core.NewParam("x", core.In, typecode.TCLong)}, Oneway: true},
		},
	}
	srv := &blockOnceServant{gate: make(chan struct{}), entered: make(chan struct{})}
	g := rts.NewChanGroup("oneway-host", 1)
	iorCh := make(chan core.IOR, 1)
	poaCh := make(chan *poa.POA, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		p := poa.New(th, core.NewRouter(fab.NewEndpoint("oneway-server")), nil)
		p.PollInterval = 20e-6
		p.SetAdmission(1, 0.01)
		ior, err := p.RegisterSingle("oneway-1", iface, srv)
		if err != nil {
			t.Error(err)
			return
		}
		p.SetDispatchAuto(1, 1)
		iorCh <- ior
		poaCh <- p
		p.ImplIsReady()
	}()
	ior, p := <-iorCh, <-poaCh

	aErr := make(chan error, 1)
	go func() {
		orb := newClient(fab, nil)
		b, err := orb.Bind(ior, iface)
		if err != nil {
			aErr <- err
			return
		}
		_, err = b.Invoke("work", []any{int32(1)})
		aErr <- err
	}()
	<-srv.entered

	orb := newClient(fab, nil)
	b, err := orb.Bind(ior, iface)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke("fire", []any{int32(9)}); err != nil {
		t.Fatalf("oneway send errored: %v", err)
	}
	for p.ShedCount() == 0 {
		time.Sleep(200 * time.Microsecond)
	}

	close(srv.gate)
	if err := <-aErr; err != nil {
		t.Fatalf("admitted invocation failed: %v", err)
	}
	// Only the blocked invocation ran; the oneway was shed, not queued.
	if got := srv.served.Load(); got != 1 {
		t.Fatalf("served = %d, want 1 (dropped oneway must not execute)", got)
	}
	bShut, _ := newClient(fab, nil).Bind(ior, iface)
	bShut.Shutdown("done")
	wg.Wait()
}
