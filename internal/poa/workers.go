package poa

import (
	"math"
	"sync"
	"sync/atomic"

	"pardis/internal/core"
)

// localReq is one single-object request queued for dispatch, with the
// servant entry resolved at routing time so pool workers never touch the
// POA's object table concurrently with the owning thread. m is the decoded
// request message (m.Req the header): whoever serves the request — the
// owning thread or a pool worker — releases it when serveSingle returns. A
// zero entry (e == nil) is the retirement pill of the adaptive controller:
// the worker that dequeues it exits.
type localReq struct {
	e *entry
	m *core.Msg
}

// dispatchPool pipelines single-object dispatch: ProcessRequests hands
// requests to the workers and keeps polling the transport, so independent
// requests from different clients execute concurrently and replies overlap
// with the next request's receive. SPMD collective dispatch never enters
// the pool — it stays on the agreement path of the POA thread.
//
// The worker count floats between min and max (SetDispatchAuto), steered
// by the POA thread against the pool's own depth signal — the same quantity
// the poa_dispatch_pool_depth gauge exports: sustained backlog grows the
// pool, sustained idleness shrinks it back. All resizing happens on the
// owning thread — at the ProcessRequests safe point, and growth also where
// the hand-off would block (submit); growth spawns workers, shrinkage
// enqueues retirement pills.
type dispatchPool struct {
	reqs chan localReq
	wg   sync.WaitGroup

	// depth counts requests queued or executing in this pool (the local
	// twin of the process-wide gauge; a process may host several POAs).
	depth atomic.Int64

	// Controller state, owned by the POA thread.
	workers  int // current live worker target (pills in flight already deducted)
	min, max int
	// idleSince is the instant, on the POA thread's clock, the controller
	// found the pool empty above min; negative while it is not.
	idleSince float64
}

// poolIdleRounds sizes the idle window after which the controller halves
// the pool: poolIdleRounds × PollInterval on the POA thread's clock, 12.8 ms
// at the default — far above any dispatch burst period. A window, not a
// count of rounds: an idle adapter parks until a frame (POA.idleWait), so
// its rounds are paced by arrivals, each of which finds the request it just
// submitted in the pool.
const poolIdleRounds = 64

func newDispatchPool(p *POA, min, max int) *dispatchPool {
	pl := &dispatchPool{
		reqs:    make(chan localReq, 4*max),
		workers: min, min: min, max: max,
		idleSince: -1,
	}
	poaPoolWorkers.Set(int64(min))
	pl.spawn(p, min)
	return pl
}

func (pl *dispatchPool) spawn(p *POA, n int) {
	pl.wg.Add(n)
	for i := 0; i < n; i++ {
		go pl.run(p)
	}
}

func (pl *dispatchPool) run(p *POA) {
	defer pl.wg.Done()
	// Worker-private scratch: replies from different workers are independent
	// vectored sends on a concurrency-safe fabric, and every request this
	// worker serves is handed the same context, refilled.
	var iov [2][]byte
	var ctx Context
	for lr := range pl.reqs {
		if lr.e == nil {
			return // retirement pill
		}
		p.serveSingle(lr.e, lr.m, &iov, &ctx)
		p.admitted.Add(-1)
		pl.depth.Add(-1)
		poaPoolDepth.Add(-1)
	}
}

// submit hands one request to the workers. A full queue means the POA
// thread is about to block with a backlog behind it — exactly when more
// workers are wanted, and the loop-exit safe point where tune runs may be a
// whole flood away — so the controller's grow arm runs before the blocking
// send. Owning thread only, like tune.
func (pl *dispatchPool) submit(p *POA, lr localReq) {
	pl.depth.Add(1)
	poaPoolDepth.Add(1)
	select {
	case pl.reqs <- lr:
	default:
		pl.grow(p)
		pl.reqs <- lr
	}
}

// grow is the controller's grow arm: backlog beyond 2× the worker count
// means the pool is the bottleneck, so double up to max. It reports whether
// it resized.
func (pl *dispatchPool) grow(p *POA) bool {
	if int(pl.depth.Load()) <= 2*pl.workers || pl.workers >= pl.max {
		return false
	}
	n := pl.workers
	if pl.workers+n > pl.max {
		n = pl.max - pl.workers
	}
	// Publish the accounting before the workers exist: a new worker can take
	// a request — and whoever watches the gauge can see it served — before
	// this goroutine runs again.
	pl.workers += n
	pl.idleSince = -1
	poaPoolWorkers.Set(int64(pl.workers))
	poaPoolResizes.Inc()
	pl.spawn(p, n)
	return true
}

// tune is the pool-size controller, called from ProcessRequests on the
// owning thread each round: the grow arm (which submit also runs when it
// would block), else the shrink arm — a pool found empty and idle above min
// throughout one idle window halves toward min, and the next halving waits
// a window of its own, so a burst's worth of workers does not linger
// forever.
func (pl *dispatchPool) tune(p *POA) {
	switch {
	case pl.grow(p):
	case pl.depth.Load() == 0 && pl.workers > pl.min:
		now := p.th.Elapsed()
		if pl.idleSince < 0 {
			pl.idleSince = now
			return
		}
		if now < pl.idleSince+pl.window(p) {
			return
		}
		pl.idleSince = now
		shrink := pl.workers / 2
		if pl.workers-shrink < pl.min {
			shrink = pl.workers - pl.min
		}
		for i := 0; i < shrink; i++ {
			pl.reqs <- localReq{} // retirement pill
		}
		pl.workers -= shrink
		poaPoolWorkers.Set(int64(pl.workers))
		poaPoolResizes.Inc()
	default:
		pl.idleSince = -1
	}
}

// window is the pool's idle window, seconds on the POA thread's clock.
func (pl *dispatchPool) window(p *POA) float64 { return poolIdleRounds * p.PollInterval }

// shrinkAt is when the idle POA thread must next run tune: never for a pool
// at min; else one window after it found the pool empty, or, while the
// workers are still busy, one window from now — the soonest a pool found
// empty later could be due.
func (pl *dispatchPool) shrinkAt(p *POA) float64 {
	switch {
	case pl.workers <= pl.min:
		return math.Inf(1)
	case pl.idleSince < 0:
		return p.th.Elapsed() + pl.window(p)
	}
	return pl.idleSince + pl.window(p)
}

// SetDispatchAuto gives the POA an opt-in worker pool for single-object
// dispatch, so independent requests from different clients execute
// concurrently while SPMD collective ordering stays on the agreement path
// (replies are matched by request ID, so out-of-order completion is safe).
// The worker count starts at min and floats in [min, max], growing when the
// queue depth shows the pool is the bottleneck and halving after each idle
// window (poolIdleRounds × PollInterval) it spends empty, under ImplIsReady
// as under a ProcessRequests loop (see dispatchPool.tune); min == max is a
// fixed width.
// max <= 0 restores serial dispatch; otherwise min is clamped to at least 1
// and max to at least min. The call leaves dispatch serial on fabrics whose
// sends are not safe for concurrent use (see Router.ConcurrentSendSafe).
//
// Pooled dispatch imposes two rules the serial path does not: servants of
// single objects must be safe for concurrent invocation, and they cannot
// poll for further requests mid-computation (Context.POA is nil — the
// ProcessRequests reentry of the paper's §4.2 is a POA-thread affordance).
// Call from the POA's owning thread, outside ImplIsReady/ProcessRequests.
func (p *POA) SetDispatchAuto(min, max int) {
	p.stopDispatchPool()
	if max <= 0 || !p.r.ConcurrentSendSafe() {
		return
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	p.pool = newDispatchPool(p, min, max)
}

// DispatchWorkers reports the pool's current worker count (0 = serial
// dispatch). Owning-thread read, like every pool operation.
func (p *POA) DispatchWorkers() int {
	if p.pool == nil {
		return 0
	}
	return p.pool.workers
}

// stopDispatchPool drains in-flight pooled dispatches and returns the POA
// to serial single-object dispatch.
func (p *POA) stopDispatchPool() {
	if p.pool == nil {
		return
	}
	close(p.pool.reqs)
	p.pool.wg.Wait()
	p.pool = nil
	poaPoolWorkers.Set(0)
}
