package nexus

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pardis/internal/obs/leaktest"
)

// drain pulls every pending frame off ep without blocking.
func drain(ep Endpoint) []Frame {
	var out []Frame
	for {
		fr, ok, err := ep.Poll()
		if err != nil || !ok {
			return out
		}
		out = append(out, fr)
	}
}

// TestFaultScheduleDeterminism runs the same traffic under the same seed
// twice and demands bit-identical injection decisions — the property every
// chaos test in the tree leans on to pin its corpus.
func TestFaultScheduleDeterminism(t *testing.T) {
	run := func(seed uint64) (FaultStats, []Frame) {
		fab := NewInproc()
		fi := NewFaultInjector(seed, FaultPlan{Drop: 0.2, Truncate: 0.1, Dup: 0.1, Delay: 0.15})
		a := fi.Wrap(fab.NewEndpoint("a"))
		b := fab.NewEndpoint("b")
		for i := 0; i < 200; i++ {
			if err := a.Send(b.Addr(), []byte(fmt.Sprintf("frame-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return fi.Stats(), drain(b)
	}
	s1, f1 := run(42)
	s2, f2 := run(42)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("same seed, different delivery count: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if !bytes.Equal(f1[i].Data, f2[i].Data) {
			t.Fatalf("frame %d diverged: %q vs %q", i, f1[i].Data, f2[i].Data)
		}
	}
	// A different seed must actually change the schedule.
	s3, _ := run(43)
	if s1 == s3 {
		t.Fatalf("seeds 42 and 43 produced identical stats %+v — schedule not seeded", s1)
	}
}

// TestFaultKindsObservable checks each fault kind in isolation produces its
// characteristic receiver-side symptom.
func TestFaultKindsObservable(t *testing.T) {
	const sends = 400
	cases := []struct {
		name  string
		plan  FaultPlan
		check func(t *testing.T, st FaultStats, got []Frame)
	}{
		{"drop", FaultPlan{Drop: 0.3}, func(t *testing.T, st FaultStats, got []Frame) {
			if st.Dropped == 0 {
				t.Fatal("no drops injected")
			}
			if len(got) != sends-st.Dropped {
				t.Fatalf("delivered %d, want %d", len(got), sends-st.Dropped)
			}
		}},
		{"truncate", FaultPlan{Truncate: 0.3}, func(t *testing.T, st FaultStats, got []Frame) {
			if st.Truncated == 0 {
				t.Fatal("no truncations injected")
			}
			short := 0
			for _, fr := range got {
				if len(fr.Data) < len("frame-000") {
					short++
				}
			}
			if short != st.Truncated {
				t.Fatalf("saw %d torn frames, stats say %d", short, st.Truncated)
			}
		}},
		{"dup", FaultPlan{Dup: 0.3}, func(t *testing.T, st FaultStats, got []Frame) {
			if st.Duplicated == 0 {
				t.Fatal("no duplicates injected")
			}
			if len(got) != sends+st.Duplicated {
				t.Fatalf("delivered %d, want %d", len(got), sends+st.Duplicated)
			}
		}},
		{"delay", FaultPlan{Delay: 0.3, DelaySpan: 3}, func(t *testing.T, st FaultStats, got []Frame) {
			if st.Delayed == 0 {
				t.Fatal("no delays injected")
			}
			reordered := false
			last := -1
			for _, fr := range got {
				var n int
				fmt.Sscanf(string(fr.Data), "frame-%03d", &n)
				if n < last {
					reordered = true
				}
				last = n
			}
			if !reordered {
				t.Fatal("delays injected but no reordering observed")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := NewInproc()
			fi := NewFaultInjector(7, tc.plan)
			a := fi.Wrap(fab.NewEndpoint("a"))
			b := fab.NewEndpoint("b")
			for i := 0; i < sends; i++ {
				if err := a.Send(b.Addr(), []byte(fmt.Sprintf("frame-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			tc.check(t, fi.Stats(), drain(b))
		})
	}
}

// TestFaultKillBlackholesBothDirections models abrupt peer death: traffic
// to AND from the dead address disappears silently — no error — because
// that is how a real crashed peer looks from the outside.
func TestFaultKillBlackholesBothDirections(t *testing.T) {
	baseline := leaktest.Baseline()
	fab := NewInproc()
	fi := NewFaultInjector(1, FaultPlan{})
	alive := fi.Wrap(fab.NewEndpoint("alive"))
	dead := fi.Wrap(fab.NewEndpoint("dead"))
	other := fab.NewEndpoint("other")

	if err := alive.Send(dead.Addr(), []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if got := drain(dead); len(got) != 1 {
		t.Fatalf("pre-kill delivery lost: %d frames", len(got))
	}

	fi.Kill(dead.Addr())
	if !fi.Alive(alive.Addr()) || fi.Alive(dead.Addr()) {
		t.Fatal("Alive bookkeeping wrong")
	}
	// Toward the corpse: silent, no error.
	if err := alive.Send(dead.Addr(), []byte("to-corpse")); err != nil {
		t.Fatalf("send to dead peer must be silent, got %v", err)
	}
	if got := drain(dead); len(got) != 0 {
		t.Fatalf("dead endpoint received %d frames", len(got))
	}
	// From the corpse: a killed rank's own sends also vanish.
	if err := dead.Send(other.Addr(), []byte("from-corpse")); err != nil {
		t.Fatalf("send from dead peer must be silent, got %v", err)
	}
	if got := drain(other); len(got) != 0 {
		t.Fatalf("frames escaped the dead endpoint: %d", len(got))
	}
	if st := fi.Stats(); st.Blackholed != 2 {
		t.Fatalf("Blackholed = %d, want 2", st.Blackholed)
	}
	leaktest.Check(t, baseline)
}

// TestFaultRecvTimeout pins a receive parked on a Waiter (recvBy): it
// delivers a pending frame immediately, and on silence gives up (endpoint
// still usable) never before the deadline and not much past it.
func TestFaultRecvTimeout(t *testing.T) {
	baseline := leaktest.Baseline()
	fab := NewInproc()
	a := fab.NewEndpoint("a")
	b := fab.NewEndpoint("b")
	w := NewWaiter()
	if !w.Watch(b) {
		t.Fatal("an inproc endpoint cannot signal arrival")
	}

	if err := a.Send(b.Addr(), []byte("hi")); err != nil {
		t.Fatal(err)
	}
	fr, err := recvBy(w, b, w.Elapsed()+1)
	if err != nil || string(fr.Data) != "hi" {
		t.Fatalf("receive with pending frame = %q, %v", fr.Data, err)
	}

	start := time.Now()
	at := w.Elapsed() + 0.03
	_, err = recvBy(w, b, at)
	if !errors.Is(err, errRecvTimeout) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if now := w.Elapsed(); now < at {
		t.Fatalf("receive gave up %.6fs before its deadline", at-now)
	}
	if wait := time.Since(start); wait > 500*time.Millisecond {
		t.Fatalf("receive overshot: waited %v for a 30ms deadline", wait)
	}

	// The endpoint survives the timeout.
	if err := a.Send(b.Addr(), []byte("again")); err != nil {
		t.Fatal(err)
	}
	if fr, err := recvBy(w, b, w.Elapsed()+1); err != nil || string(fr.Data) != "again" {
		t.Fatalf("endpoint unusable after timeout: %q, %v", fr.Data, err)
	}
	// A timed-out receive must not strand a watcher goroutine.
	leaktest.Check(t, baseline)
}

// blindEP hides its endpoint's arrival notification, as a wrapper that does
// not forward RecvNotifier does.
type blindEP struct{ Endpoint }

// TestWaiterWatch pins the registration rules: a waiter watches an
// endpoint once however often it is asked, a second waiter on the same
// endpoint fails loudly, and an endpoint that cannot signal arrival is
// still received from, within a nap of blindNap.
func TestWaiterWatch(t *testing.T) {
	fab := NewInproc()
	a, b := fab.NewEndpoint("a"), fab.NewEndpoint("b")
	w := NewWaiter()
	if !w.Watch(b) || !w.Watch(b) {
		t.Fatal("watching an endpoint twice from one waiter failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second waiter watched an endpoint that already has one")
			}
		}()
		NewWaiter().Watch(b)
	}()

	c := fab.NewEndpoint("c")
	blind := blindEP{c}
	bw := NewWaiter()
	if bw.Watch(blind) {
		t.Fatal("a wrapper without RecvNotifier reported it signals arrival")
	}
	at := bw.Elapsed() + 0.005
	if _, err := recvBy(bw, blind, at); !errors.Is(err, errRecvTimeout) || bw.Elapsed() < at {
		t.Fatalf("blind receive from silence: %v, %.6fs before its deadline", err, at-bw.Elapsed())
	}
	go func() { _ = a.Send(c.Addr(), []byte("late")) }()
	if fr, err := recvBy(bw, blind, bw.Elapsed()+10); err != nil || string(fr.Data) != "late" {
		t.Fatalf("blind receive: %q, %v", fr.Data, err)
	}
}
