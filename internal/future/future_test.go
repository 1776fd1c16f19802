package future

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pardis/internal/obs/leaktest"
	"pardis/internal/typecode"
)

func TestResolveDeliversToAllFutures(t *testing.T) {
	c := NewCell()
	fx := Of[float64](c, 0)
	fs := Of[string](c, 1)
	if fx.Resolved() || fs.Resolved() {
		t.Fatal("futures resolved before Resolve")
	}
	c.Resolve([]any{3.5, "done"}, nil)
	if !fx.Resolved() || !fs.Resolved() {
		t.Fatal("futures not resolved together")
	}
	if v, err := fx.Get(); err != nil || v != 3.5 {
		t.Fatalf("fx = %v, %v", v, err)
	}
	if v, err := fs.Get(); err != nil || v != "done" {
		t.Fatalf("fs = %v, %v", v, err)
	}
}

func TestGetBlocksUntilResolved(t *testing.T) {
	c := NewCell()
	f := Of[int](c, 0)
	var got int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = f.MustGet()
	}()
	waitParked(c)
	c.Resolve([]any{7}, nil)
	wg.Wait()
	if got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestErrorPropagates(t *testing.T) {
	c := NewCell()
	boom := errors.New("server exploded")
	c.Resolve(nil, boom)
	f := Of[int](c, 0)
	if _, err := f.Get(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	d := DoneOf(c)
	if err := d.Wait(); !errors.Is(err, boom) {
		t.Fatalf("done err = %v", err)
	}
}

func TestTypeMismatch(t *testing.T) {
	c := NewCell()
	c.Resolve([]any{"string"}, nil)
	f := Of[int](c, 0)
	if _, err := f.Get(); err == nil {
		t.Fatal("want type error")
	}
}

func TestMissingIndex(t *testing.T) {
	c := NewCell()
	c.Resolve([]any{1}, nil)
	f := Of[int](c, 3)
	if _, err := f.Get(); err == nil {
		t.Fatal("want missing-index error")
	}
}

func TestNilValueGivesZero(t *testing.T) {
	c := NewCell()
	c.Resolve([]any{nil}, nil)
	f := Of[float64](c, 0)
	if v, err := f.Get(); err != nil || v != 0 {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestDoubleResolvePanics(t *testing.T) {
	c := NewCell()
	c.Resolve(nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double resolve")
		}
	}()
	c.Resolve(nil, nil)
}

// TestPumpDrivesResolution: a poll pumps once without waiting (-Inf), a
// blocking read pumps with no limit (+Inf) from its first round until the
// cell resolves — no poll of its own goes before the wait, whose read is
// the probe. Here: the test's Resolved, then two blocking rounds.
func TestPumpDrivesResolution(t *testing.T) {
	c := NewCell()
	var untils []float64
	c.SetPump(NewPump(func(until float64) {
		if untils = append(untils, until); len(untils) >= 3 {
			c.Resolve([]any{42}, nil)
		}
	}, func() float64 { return 0 }))
	f := Of[int](c, 0)
	if f.Resolved() { // one pump call, not resolved yet
		t.Fatal("resolved too early")
	}
	if got := f.MustGet(); got != 42 {
		t.Fatalf("got %d", got)
	}
	if want := []float64{math.Inf(-1), math.Inf(1), math.Inf(1)}; !slices.Equal(untils, want) {
		t.Fatalf("pump called with %v, want %v", untils, want)
	}
	// Further polls do not pump a resolved cell.
	if !f.Resolved() || len(untils) != 3 {
		t.Fatal("resolved cell pumped again")
	}
}

// TestPumpedWaitTimeoutEndsAtDeadline: a timed wait on a pump-driven cell
// hands its deadline, on the pump's clock, to every pump round, and gives up
// exactly when that clock reaches it — here a clock each round moves to the
// instant it was given, as an ORB round with nothing arriving does.
func TestPumpedWaitTimeoutEndsAtDeadline(t *testing.T) {
	c := NewCell()
	now := 10.0
	var untils []float64
	c.SetPump(NewPump(func(until float64) {
		untils = append(untils, until)
		now = max(now, until)
	}, func() float64 { return now }))
	if c.WaitTimeout(0.5) {
		t.Fatal("an unresolved cell reported resolved")
	}
	if want := []float64{math.Inf(-1), 10.5}; !slices.Equal(untils, want) || now != 10.5 {
		t.Fatalf("pump called with %v, clock at %v; want %v, 10.5", untils, now, want)
	}
	// A round that resolves the cell ends the wait before the deadline.
	untils = nil
	c.SetPump(NewPump(func(until float64) {
		if untils = append(untils, until); until == 11 {
			c.Resolve(nil, nil)
		}
	}, func() float64 { return now }))
	if !c.WaitTimeout(0.5) || now != 10.5 || len(untils) != 2 {
		t.Fatalf("resolving round: pump called with %v, clock at %v", untils, now)
	}
}

func TestManyWaiters(t *testing.T) {
	c := NewCell()
	f := Of[int](c, 0)
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.MustGet()
		}(i)
	}
	c.Resolve([]any{9}, nil)
	wg.Wait()
	for i, r := range results {
		if r != 9 {
			t.Fatalf("waiter %d got %d", i, r)
		}
	}
}

// TestPumplessWaitParksOnChannel: a waiter with no pump to drive parks on the
// channel Resolve closes — WaitTimeout starts no helper goroutine, and an
// expired wait leaves the cell usable.
func TestPumplessWaitParksOnChannel(t *testing.T) {
	c := NewCell()
	if c.WaitTimeout(0.002) {
		t.Fatal("unresolved cell reported resolved")
	}
	base := runtime.NumGoroutine()
	done := make(chan bool)
	go func() { done <- c.WaitTimeout(10) }()
	waitParked(c)
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let the waiter go on from parked() into its select
	}
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Errorf("%d goroutines while one waiter parks, want at most %d", n, base+1)
	}
	c.Resolve([]any{5}, nil)
	if !<-done {
		t.Fatal("WaitTimeout missed the resolution")
	}
	if err := c.Wait(); err != nil || !c.WaitTimeout(0) {
		t.Fatal("a resolved cell still waits")
	}
}

// TestPumplessWaitTimeoutBeyondDurationRange: a wait of 1e10 s is longer
// than a time.Duration holds. Converted naively it turns negative and the
// wait reports a timeout at once; it must wait for the resolution instead.
func TestPumplessWaitTimeoutBeyondDurationRange(t *testing.T) {
	for _, seconds := range []float64{1e10, math.Inf(1)} {
		c := NewCell()
		go func() {
			time.Sleep(20 * time.Millisecond)
			c.Resolve([]any{5}, nil)
		}()
		if !c.WaitTimeout(seconds) {
			t.Errorf("WaitTimeout(%g) reported a timeout; the cell resolves 20 ms later", seconds)
		}
	}
}

// TestUnwaitedCellMakesNoChannel: resolving a cell nobody parked on, and
// reading it afterwards, never installs a Pump with a wake channel.
func TestUnwaitedCellMakesNoChannel(t *testing.T) {
	c := NewCell()
	c.Resolve([]any{1}, nil)
	if v, err := Of[int](c, 0).Get(); err != nil || v != 1 || !c.WaitTimeout(1) {
		t.Fatalf("got %v, %v", v, err)
	}
	if c.driver.Load() != nil {
		t.Fatal("a cell that never parked a waiter installed a Pump")
	}
}

// TestCellReadersSeeOneResolution: 64 goroutines read one cell — the
// poll, the error, the values, a typed future and a timed wait — while it is
// resolved: with values, with an error, with a first result kept in the
// word, and with a word stored and then an error. Half of them start reading
// before the resolution and may park. Every reader sees exactly what Resolve
// delivered, and no reader is left behind.
func TestCellReadersSeeOneResolution(t *testing.T) {
	boom := errors.New("server exploded")
	for _, tc := range []struct {
		name string
		word bool // the resolver keeps vals[0], an int32, in the word
		vals []any
		err  error
	}{
		{"values", false, []any{int32(7), "seven", 7.5}, nil},
		{"error", false, nil, boom},
		{"word", true, []any{int32(7), "seven", 7.5}, nil},
		{"word then error", true, []any{int32(7)}, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := leaktest.Baseline()
			c := NewCell()
			const readers = 64
			var wg sync.WaitGroup
			early := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if r%2 == 0 {
						<-early // poll until resolved, checking Err on the way
						for !c.Resolved() {
							if err := c.Err(); err != nil && err != tc.err {
								t.Errorf("reader %d: unresolved cell reports %v", r, err)
								return
							}
							runtime.Gosched()
						}
					}
					if !c.WaitTimeout(10) {
						t.Errorf("reader %d: WaitTimeout missed the resolution", r)
						return
					}
					vals, err := c.Values()
					x, xerr := Of[int32](c, 0).Get()
					switch {
					case err != tc.err || xerr != tc.err || c.Err() != tc.err:
						t.Errorf("reader %d: errors %v, %v, %v, want %v", r, err, xerr, c.Err(), tc.err)
					case tc.err == nil && (fmt.Sprint(vals) != fmt.Sprint(tc.vals) || x != tc.vals[0]):
						t.Errorf("reader %d: values %v and %v, want %v", r, vals, x, tc.vals)
					case tc.err != nil && vals != nil:
						t.Errorf("reader %d: a failed cell reads values %v", r, vals)
					}
				}(r)
			}
			close(early)
			vals := tc.vals
			if tc.word {
				c.SetWord(typecode.Long, uint64(tc.vals[0].(int32)))
				vals = append([]any{nil}, tc.vals[1:]...)
			}
			if tc.err != nil {
				vals = nil
			}
			c.Resolve(vals, tc.err)
			wg.Wait()
			leaktest.Check(t, baseline)
		})
	}
}

// TestWordCellReads: a first result kept in the word reads through the
// future of its Go type without an allocation, through any other type the
// boxed way — the value for any, today's error for the wrong type — and
// through Values as a view whose first slot the first call boxes the word
// into; the results after it read from the slots, and from the resolver's
// own slice when there are more than the slots hold.
func TestWordCellReads(t *testing.T) {
	c := NewCell()
	c.SetWord(typecode.Double, math.Float64bits(2.5))
	c.Resolve([]any{nil, "two"}, nil)
	f := Of[float64](c, 0)
	if v, err := f.Get(); err != nil || v != 2.5 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if n := testing.AllocsPerRun(100, func() { f.MustGet() }); n != 0 {
		t.Errorf("Get of a word allocates %v times", n)
	}
	if v, err := Of[any](c, 0).Get(); err != nil || v != 2.5 {
		t.Errorf("Of[any] = %v, %v", v, err)
	}
	_, err := Of[float32](c, 0).Get()
	if want := "future: result 0 is float64, not float32"; err == nil || err.Error() != want {
		t.Errorf("mismatched type: %v, want %q", err, want)
	}
	if v, err := Of[string](c, 1).Get(); err != nil || v != "two" {
		t.Errorf("second result = %v, %v", v, err)
	}
	_, err = Of[int32](c, 2).Get()
	if want := "future: no value at position 2 (reply carried 2)"; err == nil || err.Error() != want {
		t.Errorf("missing index: %v, want %q", err, want)
	}
	a, _ := c.Values()
	b, _ := c.Values()
	if fmt.Sprint(a) != "[2.5 two]" || &a[0] != &b[0] || &a[0] != &c.slots[0] {
		t.Errorf("Values = %v, want a view of the cell's slots", a)
	}
	if v, err := f.Get(); err != nil || v != 2.5 || kindIn(c.state.Load()) != typecode.Void {
		t.Errorf("Get after Values = %v, %v; the slot, not the word, holds it now", v, err)
	}

	over := NewCell()
	over.SetWord(typecode.Bool, 1)
	over.Resolve([]any{nil, 1, 2, 3}, nil)
	if v, err := Of[bool](over, 0).Get(); err != nil || !v {
		t.Errorf("overflow word = %v, %v", v, err)
	}
	if vals, err := over.Values(); err != nil || fmt.Sprint(vals) != "[true 1 2 3]" {
		t.Errorf("overflow Values = %v, %v", vals, err)
	}
	if v, err := Of[int](over, 3).Get(); err != nil || v != 3 {
		t.Errorf("overflow last = %v, %v", v, err)
	}
}

// TestCellAllocsByResultCount records what a non-blocking call's cell costs
// by how many results it carries, its first a double kept in the word: the
// 64 B cell alone while the results fit its InlineSlots, and past them the
// resolver's slice and the box of that slice's header in the first slot —
// so a call with three results pays two allocations (48 B + 24 B) more than
// one with two. Reading the word back allocates nothing.
func TestCellAllocsByResultCount(t *testing.T) {
	for n, want := range map[int]float64{1: 1, 2: 1, 3: 3} {
		got := testing.AllocsPerRun(100, func() {
			c := NewCell()
			vals := c.Slots(n)
			for i := 1; i < n; i++ {
				vals[i] = "rest"
			}
			c.SetWord(typecode.Double, math.Float64bits(2.5))
			c.Resolve(vals, nil)
			if v, err := Of[float64](c, 0).Get(); err != nil || v != 2.5 {
				t.Fatalf("%d results: Get = %v, %v", n, v, err)
			}
		})
		if got != want {
			t.Errorf("a cell of %d results costs %v allocations, want %v", n, got, want)
		}
	}
}

// TestCellKeepsOverflowSlice: a cell resolved with more values than it holds
// inline keeps the resolver's own slice and serves every future from it.
func TestCellKeepsOverflowSlice(t *testing.T) {
	c := NewCell()
	in := []any{1, 2, 3, 4}
	c.Resolve(in, nil)
	vals, err := c.Values()
	if err != nil || len(vals) != 4 || &vals[0] != &in[0] {
		t.Fatalf("Values = %v, %v; want the resolver's slice", vals, err)
	}
	if v, err := Of[int](c, 3).Get(); err != nil || v != 4 {
		t.Fatalf("fourth future = %v, %v", v, err)
	}
	if _, err := Of[int](c, 4).Get(); err == nil {
		t.Fatal("want missing-index error past the fourth result")
	}
}

// TestFailedCellDropsDecodedSlots: a resolver that decoded into the cell's
// slots and then failed leaves only the error behind.
func TestFailedCellDropsDecodedSlots(t *testing.T) {
	c := NewCell()
	s := c.Slots(2)
	s[0], s[1] = "half", "decoded"
	boom := errors.New("corrupt out value")
	c.Resolve(nil, boom)
	if vals, err := c.Values(); vals != nil || err != boom || c.Err() != boom {
		t.Fatalf("Values = %v, %v; Err = %v", vals, err, c.Err())
	}
	if c.slots[1] != nil {
		t.Fatalf("a failed cell still holds %v", c.slots[1])
	}
}

// waitParked returns once a waiter has installed its Pump on the pump-less c.
func waitParked(c *Cell) {
	for c.driver.Load() == nil {
		runtime.Gosched()
	}
}
