package future

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
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
	time.Sleep(5 * time.Millisecond)
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

func TestPumpDrivesResolution(t *testing.T) {
	c := NewCell()
	calls := 0
	c.SetPump(func(block bool) {
		calls++
		if calls >= 3 {
			c.Resolve([]any{42}, nil)
		}
	})
	f := Of[int](c, 0)
	if f.Resolved() { // one pump call, not resolved yet
		t.Fatal("resolved too early")
	}
	if got := f.MustGet(); got != 42 {
		t.Fatalf("got %d", got)
	}
	if calls != 3 {
		t.Fatalf("pump called %d times, want 3", calls)
	}
	// Further polls do not pump a resolved cell.
	if !f.Resolved() || calls != 3 {
		t.Fatal("resolved cell pumped again")
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
	for parked := false; !parked; {
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		parked = c.wake != nil
		c.mu.Unlock()
	}
	time.Sleep(time.Millisecond) // the waiter is past parked() and into its select
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

// TestUnwaitedCellMakesNoChannel: resolving a cell nobody parked on, and
// reading it afterwards, never makes the wake channel.
func TestUnwaitedCellMakesNoChannel(t *testing.T) {
	c := NewCell()
	c.Resolve([]any{1}, nil)
	if v, err := Of[int](c, 0).Get(); err != nil || v != 1 || !c.WaitTimeout(1) {
		t.Fatalf("got %v, %v", v, err)
	}
	if c.wake != nil {
		t.Fatal("a cell that never parked a waiter made a wake channel")
	}
}
