// Package future implements PARDIS futures: placeholders for the results of
// non-blocking invocations.
//
// A non-blocking stub returns immediately after its request is sent, handing
// the caller futures of its "out" arguments and return value. All futures of
// one invocation resolve together when the server's reply arrives (paper
// §3.3). Reading an unresolved future blocks; Resolved polls. The design
// follows the ABC++ abstraction the paper credits.
//
// A cell holds no condition variable. A waiter on a cell with a pump (every
// cell the ORB mints for a remote call) drives the pump itself and never
// parks on the cell; a waiter on a cell without one (a co-located call, a
// NewCell) parks on a channel the first such waiter makes and Resolve closes.
package future

import (
	"fmt"
	"sync"
	"time"
)

// Cell is the shared resolution state of one non-blocking invocation: every
// future minted for that invocation points at the same cell, so they resolve
// at the same instant.
type Cell struct {
	mu       sync.Mutex
	resolved bool
	err      error
	vals     []any

	// pump, when set, is called (unlocked) to drive the underlying
	// request machinery until progress occurs. Blocking waiters loop on
	// it; pollers call it once with block=false. The ORB sets it on every
	// cell of a remote call, so the waiting thread runs the ORB's reply
	// processing itself — on its own virtual clock under the simulated
	// transport.
	pump func(block bool)
	// wake is closed by Resolve. It is made by the first waiter that has no
	// pump to drive and must park, so a cell nobody parks on never has one.
	wake chan struct{}
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

// Resolve delivers the invocation's results (positional out-arguments and
// return value) or its error, waking all waiters. Resolving twice panics:
// a reply must arrive exactly once per request.
func (c *Cell) Resolve(vals []any, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resolved {
		panic("future: cell resolved twice")
	}
	c.resolved = true
	c.vals = vals
	c.err = err
	futResolved.Inc()
	if err != nil {
		futErrors.Inc()
	}
	if c.wake != nil {
		close(c.wake)
	}
}

// Resolved reports whether results are available, giving the underlying
// machinery a chance to make progress first (the paper's poll).
func (c *Cell) Resolved() bool {
	c.mu.Lock()
	done := c.resolved
	c.mu.Unlock()
	if done {
		return true
	}
	if c.pump != nil {
		c.pump(false)
		c.mu.Lock()
		done = c.resolved
		c.mu.Unlock()
	}
	return done
}

// parked returns the channel Resolve closes, or nil when the cell is
// already resolved. Pump-less waiters only.
func (c *Cell) parked() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resolved {
		return nil
	}
	if c.wake == nil {
		c.wake = make(chan struct{})
	}
	return c.wake
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
		sleep := 50 * time.Microsecond
		for {
			if c.Resolved() {
				return true
			}
			if !time.Now().Before(deadline) {
				futWaitTimeouts.Inc()
				return false
			}
			time.Sleep(sleep)
			if sleep < time.Millisecond {
				sleep *= 2
			}
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

// Err returns the resolution error; call after Wait or Resolved.
func (c *Cell) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Values blocks until resolution and returns all result values.
func (c *Cell) Values() ([]any, error) {
	if err := c.Wait(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals, nil
}

func (c *Cell) value(idx int) (any, error) {
	if err := c.Wait(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < 0 || idx >= len(c.vals) {
		return nil, fmt.Errorf("future: no value at position %d (reply carried %d)", idx, len(c.vals))
	}
	return c.vals[idx], nil
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
