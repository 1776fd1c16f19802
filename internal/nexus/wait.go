package nexus

import (
	"math"
	"sync/atomic"
	"time"

	"pardis/internal/obs"
	"pardis/internal/vtime"
)

// TimedWait is the one timed wait of a thread: every deadline of the runtime
// is a loop that probes for what it wants and parks here between probes.
// Waiter implements it on the wall clock; rts.Thread embeds it.
type TimedWait interface {
	// Elapsed reads the clock the wait's instants are on, in seconds.
	Elapsed() float64
	// ElapsedNS reads it in nanoseconds, the unit of spans and latencies.
	ElapsedNS() int64
	// WaitUntil parks until a frame reaches the thread or until Elapsed
	// reads at, whichever is first; an instant too far off for a timer
	// (+Inf included) waits for a frame alone. It consumes nothing and may
	// return early, so a caller probes again before it waits again.
	WaitUntil(at float64)
	// Watch makes a frame arriving at ep, an endpoint the thread owns, end
	// WaitUntil, and reports whether it does. Watching an endpoint twice is
	// a no-op; an endpoint watched by another wait panics.
	Watch(ep Endpoint) bool
}

// Waiter is TimedWait on the process's one wall clock (obs.NowNS), for its
// owning thread only. Arrivals signal a one-slot channel from the delivering
// goroutine, so a frame landing between a probe and the wait still ends it.
//
// While the first TCP channel it watches is read in place (DESIGN.md §12,
// "Who reads a frame") a wait parks in a read of that channel's connection
// instead, with the wait's instant as the read's deadline, and an arrival
// elsewhere ends the read by moving the deadline into the past.
type Waiter struct {
	wake    chan struct{}
	timer   *time.Timer
	watched map[Endpoint]bool // whether each watched endpoint signals arrival
	blind   bool              // one does not: every wait lasts at most blindNap

	rd     *tcpChan                // the channel a wait may read in place
	parked atomic.Pointer[tcpConn] // the connection a wait is reading now
}

// blindNap bounds one wait of a Waiter watching an endpoint that cannot
// signal arrival (a wrapper that does not forward RecvNotifier), and so how
// late a frame there is noticed.
const blindNap = 200 * time.Microsecond

// NewWaiter returns a Waiter.
func NewWaiter() *Waiter {
	w := &Waiter{wake: make(chan struct{}, 1), timer: time.NewTimer(time.Hour), watched: map[Endpoint]bool{}}
	w.timer.Stop()
	return w
}

// Elapsed and ElapsedNS implement TimedWait on the process's wall clock.
func (w *Waiter) Elapsed() float64 { return float64(obs.NowNS()) / 1e9 }
func (w *Waiter) ElapsedNS() int64 { return obs.NowNS() }

// Watch implements TimedWait. The first endpoint that offers the
// package's read hook is watched through it; any later one, like every
// other endpoint, through RecvNotifier, so its connection gets a reader
// goroutine — a wait parks in one read at most.
func (w *Waiter) Watch(ep Endpoint) bool {
	signals, ok := w.watched[ep]
	if !ok {
		if h, can := ep.(readWatcher); can && w.rd == nil {
			w.rd, signals = h.watchRead(w.signal)
		} else {
			rn, can := ep.(RecvNotifier)
			signals = can && rn.SetRecvNotify(w.signal)
		}
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
	if tc := w.parked.Load(); tc != nil { // evSignal: cut the read short
		_, act := step(roleState{parked: true}, evSignal)
		tc.act(act)
	}
}

// woken consumes a signal, reporting whether there was one (none for a nil
// Waiter).
func (w *Waiter) woken() bool {
	if w == nil {
		return false
	}
	select {
	case <-w.wake:
		return true
	default:
		return false
	}
}

// WaitUntil implements TimedWait. An untimed wait (+Inf) reads no clock.
func (w *Waiter) WaitUntil(at float64) {
	d := vtime.Forever
	if !math.IsInf(at, 1) {
		if d = vtime.Wall(at - w.Elapsed()); d <= 0 {
			return
		}
	}
	if w.blind {
		d = min(d, blindNap)
	}
	if w.rd != nil {
		var deadline time.Time
		if d != vtime.Forever {
			deadline = time.Now().Add(d)
		}
		// A frame for the channel goes to its inbox, for the next Poll.
		if fr, res := w.rd.readOwn(false, deadline, w); res != readNone {
			if res == readMine {
				w.rd.put(fr)
			}
			return
		}
	}
	if d == vtime.Forever {
		<-w.wake
		return
	}
	w.timer.Reset(d)
	select {
	case <-w.wake:
		w.timer.Stop()
	case <-w.timer.C:
	}
}
