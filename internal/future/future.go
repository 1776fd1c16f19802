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
// atomic state word says whether it is pending, resolved or failed, how many
// results it carries and whether the first of them is a scalar kept unboxed.
// That scalar sits in a raw 8-byte word (typecode.UnmarshalWord), which a
// Future of the matching Go type reads without an interface; the results
// sit in two inline slots (a failed call keeps its error in the first, a
// call with more results its own slice), where the word's slot stays empty
// until the first Values call boxes the word into it. Resolve claims the
// state word, stores the results, then publishes the state word, so a
// reader that sees the cell resolved sees everything Resolve stored.
//
// One driver pointer says how a waiter gets there. A cell the ORB mints for
// a remote call points at the ORB's Pump, and its waiter drives the pump
// itself and never parks on the cell; on a cell without one (a co-located
// call, a NewCell) the first waiter that parks installs a Pump carrying the
// channel Resolve closes.
package future

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"pardis/internal/typecode"
	"pardis/internal/vtime"
)

// InlineSlots is the number of result values a Cell holds without a slice of
// their own. A first result kept in the word takes one of them: its slot
// stays empty until Values boxes the word into it.
const InlineSlots = 2

// The state word: the low bits say where the cell is, the bits from
// kindShift the typecode.Kind of the scalar its word holds (typecode.Void
// for none), the boxing bit that a Values call is boxing the word into its
// slot, and the bits from countShift the number of results once it is
// resolved.
const (
	statePending   = iota // not resolved
	stateResolving        // a Resolve is storing the results
	stateResolved         // results published
	stateFailed           // the error published in slots[0]

	stateMask  = 3
	kindShift  = 2
	kindMask   = 15
	boxing     = 1 << 6
	countShift = 7
)

// Pump drives cells toward resolution. One with a progress function is
// shared by every cell of an ORB, and its waiters run the ORB's reply
// processing themselves — on their own virtual clock under the simulated
// transport. fn makes one round of progress, waiting at most until the
// instant until on the clock now reads: -Inf to poll, +Inf to block, a
// deadline to wait. One without is a single pump-less cell's own, installed
// by its first parked waiter to carry the channel Resolve closes.
type Pump struct {
	fn   func(until float64)
	now  func() float64
	wake chan struct{}
}

// NewPump returns a Pump whose waiters call fn to make progress, with
// deadlines on the clock now reads.
func NewPump(fn func(until float64), now func() float64) *Pump { return &Pump{fn: fn, now: now} }

// Cell is the shared resolution state of one non-blocking invocation: every
// future minted for that invocation points at the same cell, so they resolve
// at the same instant. A Cell must not be copied once in use.
type Cell struct {
	state atomic.Uint32
	// driver is the ORB's Pump (SetPump), the Pump the first parked waiter
	// of a pump-less cell installs, or nil while nobody has parked on one.
	driver atomic.Pointer[Pump]
	// word holds the first result when the state names its kind.
	word uint64
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

// SetPump points the cell at the Pump its waiters drive. Must be called
// before any future of this cell is read.
func (c *Cell) SetPump(p *Pump) { c.driver.Store(p) }

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

// SetWord stores the invocation's first result as the word w of a scalar of
// kind k (see typecode.UnmarshalWord); the first of the values then passed to
// Resolve is left empty. Like Slots, it is for the cell's resolver only,
// before Resolve.
func (c *Cell) SetWord(k typecode.Kind, w uint64) {
	if !k.Scalar() {
		panic(fmt.Sprintf("future: %v is not a scalar", k))
	}
	c.word = w
	c.state.Store(uint32(k) << kindShift) // still pending: readers look at the low bits only
}

// Resolve delivers the invocation's results (positional out-arguments and
// return value) or its error, waking all waiters. Resolving twice panics: a
// reply must arrive exactly once per request.
func (c *Cell) Resolve(vals []any, err error) {
	st := c.state.Load()
	if st&stateMask != statePending || !c.state.CompareAndSwap(st, st|stateResolving) {
		panic("future: cell resolved twice")
	}
	st |= stateResolved | uint32(len(vals))<<countShift
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
	// After the store: a waiter installs its Pump before it re-checks the
	// state, so either this load sees the Pump or the waiter sees the cell
	// resolved.
	if d := c.driver.Load(); d != nil && d.wake != nil {
		close(d.wake)
	}
}

// kindIn returns the kind of scalar the state st says the word holds, or
// typecode.Void.
func kindIn(st uint32) typecode.Kind { return typecode.Kind(st >> kindShift & kindMask) }

// done reports whether the results are published.
func (c *Cell) done() bool { return c.state.Load()&stateMask >= stateResolved }

// pump returns the cell's driver when it has a progress function, or nil.
func (c *Cell) pump() *Pump {
	if d := c.driver.Load(); d != nil && d.fn != nil {
		return d
	}
	return nil
}

// Resolved reports whether results are available, giving the underlying
// machinery a chance to make progress first (the paper's poll).
func (c *Cell) Resolved() bool {
	if c.done() {
		return true
	}
	if d := c.pump(); d != nil {
		d.fn(math.Inf(-1))
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
	d := c.driver.Load()
	if d == nil {
		mine := &Pump{wake: make(chan struct{})}
		if c.driver.CompareAndSwap(nil, mine) {
			d = mine
		} else {
			d = c.driver.Load()
		}
	}
	// A Resolve that looked for a Pump before this one was installed
	// published the state first: re-check before parking.
	if c.done() {
		return nil
	}
	return d.wake
}

// Wait blocks until the cell resolves and returns its error. A pump-driven
// waiter pumps with no limit from the start: the pump's wait is its probe,
// so no poll goes before it (Resolved is the poll).
func (c *Cell) Wait() error {
	if d := c.pump(); d != nil {
		for !c.done() {
			d.fn(math.Inf(1))
		}
	} else if wake := c.parked(); wake != nil {
		<-wake
	}
	return c.Err()
}

// WaitTimeout blocks until the cell resolves or seconds elapse, reporting
// whether it resolved. A false return does not cancel the invocation: the
// cell may still resolve later (use the ORB's cancellation to claim it).
// A pump-driven cell's waiter drives the pump with its deadline on the
// pump's clock; a pump-less waiter parks on the cell's wake channel and a
// timer.
func (c *Cell) WaitTimeout(seconds float64) bool {
	if c.Resolved() {
		return true
	}
	if d := c.pump(); d != nil {
		until := d.now() + seconds
		for d.now() < until {
			d.fn(until)
			if c.done() {
				return true
			}
		}
		futWaitTimeouts.Inc()
		return false
	}
	wake := c.parked()
	if wake == nil {
		return true
	}
	d := vtime.Wall(seconds)
	if d == vtime.Forever {
		<-wake
		return true
	}
	timer := time.NewTimer(d)
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
	if c.state.Load()&stateMask == stateFailed {
		return c.slots[0].(error)
	}
	return nil
}

// Values blocks until resolution and returns all result values: a view of
// the results the cell holds. The first Values call on a cell that keeps its
// first result in its word boxes it into its slot, once; a reader racing
// that call gets a copy rather than wait for it.
func (c *Cell) Values() ([]any, error) {
	if err := c.Wait(); err != nil {
		return nil, err
	}
	st := c.state.Load()
	vals := c.view(st >> countShift)
	k := kindIn(st)
	if k == typecode.Void {
		return vals, nil
	}
	v := typecode.WordValue(k, c.word)
	if st&boxing == 0 && c.state.CompareAndSwap(st, st|boxing) {
		vals[0] = v
		// Publish the slot: from here on every reader takes the value there.
		c.state.Store(st &^ (kindMask << kindShift))
		return vals, nil
	}
	return append([]any{v}, vals[1:]...), nil
}

// view returns the n results held in the slots of a cell resolved without
// error.
func (c *Cell) view(n uint32) []any {
	switch {
	case n == 0:
		return nil
	case n <= uint32(len(c.slots)):
		return c.slots[:n:n]
	}
	return c.slots[0].([]any)
}

// value returns the idx-th result of a cell resolved without error, boxing
// the word if that is where it is.
func (c *Cell) value(idx int) (any, error) {
	st := c.state.Load()
	n := st >> countShift
	if idx < 0 || idx >= int(n) {
		return nil, fmt.Errorf("future: no value at position %d (reply carried %d)", idx, n)
	}
	if k := kindIn(st); k != typecode.Void && idx == 0 {
		return typecode.WordValue(k, c.word), nil
	}
	return c.view(n)[idx], nil
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
// The first result of a cell that keeps it in its word is read from the word
// when T is its Go type, with no interface in between.
func (f Future[T]) Get() (T, error) {
	var zero T
	c := f.cell
	if err := c.Wait(); err != nil {
		return zero, err
	}
	if k := kindIn(c.state.Load()); k != typecode.Void && f.idx == 0 {
		if t, ok := typecode.WordAs[T](k, c.word); ok {
			return t, nil
		}
	}
	v, err := c.value(f.idx)
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
