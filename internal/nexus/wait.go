package nexus

import "time"

// TimedWait is the one timed wait of a thread: every deadline of the runtime
// is a loop that probes for what it wants and parks here between probes.
// Waiter implements it on the wall clock; rts.Thread embeds it.
type TimedWait interface {
	// Elapsed reads the clock the wait's instants are on, in seconds.
	Elapsed() float64
	// WaitUntil parks until a frame reaches the thread or until Elapsed
	// reads at (finite), whichever is first. It consumes nothing and may
	// return early, so a caller probes again before it waits again.
	WaitUntil(at float64)
	// Watch makes a frame arriving at ep, an endpoint the thread owns, end
	// WaitUntil, and reports whether it does. Watching an endpoint twice is
	// a no-op; an endpoint watched by another wait panics.
	Watch(ep Endpoint) bool
}

// Waiter is TimedWait on the wall clock. Arrivals signal a one-slot channel
// from the delivering goroutine, so a frame that lands between a probe and
// the wait still ends the wait. Only its owning thread may use it.
type Waiter struct {
	start   time.Time
	wake    chan struct{}
	timer   *time.Timer
	watched map[Endpoint]bool // whether each watched endpoint signals arrival
	blind   bool              // one does not: every wait lasts at most blindNap
}

// blindNap bounds one wait of a Waiter watching an endpoint that cannot
// signal arrival (a wrapper that does not forward RecvNotifier), and so how
// late a frame there is noticed.
const blindNap = 200 * time.Microsecond

// NewWaiter returns a Waiter whose clock reads 0 at start.
func NewWaiter(start time.Time) *Waiter {
	w := &Waiter{start: start, wake: make(chan struct{}, 1), timer: time.NewTimer(time.Hour), watched: map[Endpoint]bool{}}
	w.timer.Stop()
	return w
}

// Elapsed implements TimedWait: seconds since the waiter's start.
func (w *Waiter) Elapsed() float64 { return time.Since(w.start).Seconds() }

// Watch implements TimedWait.
func (w *Waiter) Watch(ep Endpoint) bool {
	signals, ok := w.watched[ep]
	if !ok {
		rn, can := ep.(RecvNotifier)
		signals = can && rn.SetRecvNotify(w.signal)
		w.watched[ep] = signals
		w.blind = w.blind || !signals
	}
	return signals
}

// signal records an arrival; it runs on the delivering goroutine.
func (w *Waiter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// WaitUntil implements TimedWait.
func (w *Waiter) WaitUntil(at float64) {
	d := time.Duration((at - w.Elapsed()) * float64(time.Second))
	if d <= 0 {
		return
	}
	if w.blind {
		d = min(d, blindNap)
	}
	w.timer.Reset(d)
	select {
	case <-w.wake:
		w.timer.Stop()
	case <-w.timer.C:
	}
}
