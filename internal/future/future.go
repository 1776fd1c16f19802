// Package future implements PARDIS futures: placeholders for the results of
// non-blocking invocations.
//
// A non-blocking stub returns immediately after its request is sent, handing
// the caller futures of its "out" arguments and return value. All futures of
// one invocation resolve together when the server's reply arrives (paper
// §3.3). Reading an unresolved future blocks; Resolved polls. The design
// follows the ABC++ abstraction the paper credits.
//
// A Cell is the caller's whole part of one invocation and takes no lock. One
// atomic state word says whether it is pending, resolved or failed and how
// many results it carries; the results themselves sit in three inline slots
// (a failed call keeps its error in the first, a call with more results its
// own slice). Resolve claims the word, stores the results, then publishes the
// word, so a reader that sees the cell resolved sees everything Resolve
// stored. A waiter on a cell with a pump (every cell the ORB mints for a
// remote call) drives the pump itself and never parks on the cell; a waiter
// on a cell without one (a co-located call, a NewCell) parks on a channel the
// first such waiter installs and Resolve closes.
package future

import (
	"fmt"
	"sync/atomic"
	"time"
)

// InlineSlots is the number of result values a Cell holds without a slice of
// their own.
const InlineSlots = 3

// The state word: the low bits say where the cell is, the bits above
// countShift hold the number of results once it is resolved.
const (
	statePending   = iota // not resolved
	stateResolving        // a Resolve is storing the results
	stateResolved         // results published
	stateFailed           // the error published in slots[0]

	stateMask  = 3
	countShift = 2
)

// Cell is the shared resolution state of one non-blocking invocation: every
// future minted for that invocation points at the same cell, so they resolve
// at the same instant. A Cell must not be copied once in use.
type Cell struct {
	state atomic.Uint32

	// pump, when set, is called to drive the underlying request machinery
	// until progress occurs. Blocking waiters loop on it; pollers call it
	// once with block=false. The ORB sets it on every cell of a remote call,
	// so the waiting thread runs the ORB's reply processing itself — on its
	// own virtual clock under the simulated transport.
	pump func(block bool)
	// wake is the channel Resolve closes. The first waiter that has no pump
	// to drive and must park installs it, so a cell nobody parks on never has
	// one.
	wake atomic.Pointer[chan struct{}]

	// slots hold the results (up to InlineSlots of them), the error of a
	// failed call, or the []any of a call with more results.
	slots [InlineSlots]any
}

// NewCell returns an unresolved cell.
func NewCell() *Cell {
	c := &Cell{}
	c.Init()
	return c
}

// Init readies a zero Cell in place, for a cell embedded in a larger
// per-invocation record (the ORB's) so the two share one allocation. The
// cell must not be copied or re-initialized while anyone may still read it:
// futures hold its address.
func (c *Cell) Init() { futCells.Inc() }

// SetPump installs the progress function (see Cell.pump). Must be called
// before any future of this cell is read.
func (c *Cell) SetPump(pump func(block bool)) { c.pump = pump }

// Slots returns room for n result values, for whoever will resolve the cell
// to decode into before passing it to Resolve: the cell's own slots when n is
// at most InlineSlots, a fresh slice otherwise. Nobody else may touch the
// cell's slots until it resolves, so only its resolver may call Slots, and
// only before Resolve.
func (c *Cell) Slots(n int) []any {
	if n > len(c.slots) {
		return make([]any, n)
	}
	return c.slots[:n:n]
}

// Resolve delivers the invocation's results (positional out-arguments and
// return value) or its error, waking all waiters. Resolving twice panics:
// a reply must arrive exactly once per request.
func (c *Cell) Resolve(vals []any, err error) {
	if !c.state.CompareAndSwap(statePending, stateResolving) {
		panic("future: cell resolved twice")
	}
	st := uint32(stateResolved) | uint32(len(vals))<<countShift
	switch {
	case err != nil:
		c.slots = [InlineSlots]any{err} // drops what a resolver decoded before it failed
		st = stateFailed
		futErrors.Inc()
	case len(vals) <= len(c.slots):
		copy(c.slots[:], vals)
	default:
		c.slots[0] = vals
	}
	c.state.Store(st)
	futResolved.Inc()
	// After the store: a waiter installs its channel before it re-checks the
	// state, so either this load sees the channel or the waiter sees the
	// cell resolved.
	if w := c.wake.Load(); w != nil {
		close(*w)
	}
}

// done reports whether the results are published.
func (c *Cell) done() bool { return c.state.Load()&stateMask >= stateResolved }

// Resolved reports whether results are available, giving the underlying
// machinery a chance to make progress first (the paper's poll).
func (c *Cell) Resolved() bool {
	if c.done() {
		return true
	}
	if c.pump != nil {
		c.pump(false)
		return c.done()
	}
	return false
}

// parked returns the channel Resolve closes, or nil when the cell is
// already resolved. Pump-less waiters only.
func (c *Cell) parked() chan struct{} {
	if c.done() {
		return nil
	}
	w := c.wake.Load()
	if w == nil {
		ch := make(chan struct{})
		if c.wake.CompareAndSwap(nil, &ch) {
			w = &ch
		} else {
			w = c.wake.Load()
		}
	}
	// A Resolve that looked for a channel before this one was installed
	// published the state first: re-check before parking.
	if c.done() {
		return nil
	}
	return *w
}

// Wait blocks until the cell resolves and returns its error.
func (c *Cell) Wait() error {
	if c.pump != nil {
		for !c.Resolved() {
			c.pump(true)
		}
	} else if wake := c.parked(); wake != nil {
		<-wake
	}
	return c.Err()
}

// WaitTimeout blocks until the cell resolves or seconds elapse, reporting
// whether it resolved. A false return does not cancel the invocation: the
// cell may still resolve later (use the ORB's cancellation to claim it).
// On a pump-driven cell the wait polls non-blocking pump rounds so the
// waiting thread keeps driving request progress without committing to a
// blocking pump that could overshoot the deadline; a pump-less waiter parks
// on the cell's wake channel and a timer.
func (c *Cell) WaitTimeout(seconds float64) bool {
	if c.Resolved() {
		return true
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	if c.pump != nil {
		step := 50 * time.Microsecond
		for {
			if c.Resolved() {
				return true
			}
			left := time.Until(deadline)
			if left <= 0 {
				futWaitTimeouts.Inc()
				return false
			}
			var nap time.Duration
			nap, step = napFor(step, time.Millisecond, left)
			time.Sleep(nap)
		}
	}
	wake := c.parked()
	if wake == nil {
		return true
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-wake:
		return true
	case <-timer.C:
		futWaitTimeouts.Inc()
		return false
	}
}

// napFor returns how long a sleep-poll wait naps after polling in vain, and
// its next backoff step: the step doubles up to ceiling, and the nap is cut
// to left, the time to the deadline, so the wait does not return a whole
// step late.
func napFor(step, ceiling, left time.Duration) (nap, next time.Duration) {
	return min(step, left), min(2*step, ceiling)
}

// Err returns the resolution error; call after Wait or Resolved.
func (c *Cell) Err() error {
	if c.state.Load()&stateMask == stateFailed {
		return c.slots[0].(error)
	}
	return nil
}

// Values blocks until resolution and returns all result values.
func (c *Cell) Values() ([]any, error) {
	if err := c.Wait(); err != nil {
		return nil, err
	}
	return c.vals(), nil
}

// vals returns the values of a cell resolved without error.
func (c *Cell) vals() []any {
	n := c.state.Load() >> countShift
	switch {
	case n == 0:
		return nil
	case n <= uint32(len(c.slots)):
		return c.slots[:n:n]
	}
	return c.slots[0].([]any)
}

func (c *Cell) value(idx int) (any, error) {
	if err := c.Wait(); err != nil {
		return nil, err
	}
	vals := c.vals()
	if idx < 0 || idx >= len(vals) {
		return nil, fmt.Errorf("future: no value at position %d (reply carried %d)", idx, len(vals))
	}
	return vals[idx], nil
}

// Future is a typed placeholder for one result of a non-blocking
// invocation. The zero Future is invalid; obtain futures from Of.
type Future[T any] struct {
	cell *Cell
	idx  int
}

// Of mints the future for the idx-th result carried by cell.
func Of[T any](cell *Cell, idx int) Future[T] {
	return Future[T]{cell: cell, idx: idx}
}

// Resolved reports whether the result is available (the paper's
// future.resolved() poll).
func (f Future[T]) Resolved() bool { return f.cell.Resolved() }

// Get blocks until the invocation completes and returns the value. An
// invocation failure or a result of the wrong type is reported as an error.
func (f Future[T]) Get() (T, error) {
	var zero T
	v, err := f.cell.value(f.idx)
	if err != nil {
		return zero, err
	}
	if v == nil {
		return zero, nil
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("future: result %d is %T, not %T", f.idx, v, zero)
	}
	return t, nil
}

// MustGet is Get, panicking on error — the ergonomic path when invocation
// failure is already fatal to the caller.
func (f Future[T]) MustGet() T {
	v, err := f.Get()
	if err != nil {
		panic(err)
	}
	return v
}

// Done is a future carrying no value, only completion — the analog of a
// void return for a non-blocking invocation.
type Done struct{ cell *Cell }

// DoneOf wraps a cell as a completion-only future.
func DoneOf(cell *Cell) Done { return Done{cell: cell} }

// Resolved reports whether the invocation completed.
func (d Done) Resolved() bool { return d.cell.Resolved() }

// Wait blocks until completion and returns the invocation error, if any.
func (d Done) Wait() error { return d.cell.Wait() }

// WaitTimeout blocks until completion or seconds elapse, reporting whether
// the invocation completed.
func (d Done) WaitTimeout(seconds float64) bool { return d.cell.WaitTimeout(seconds) }
