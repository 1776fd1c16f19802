package rts

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pardis/internal/obs/leaktest"
)

// faultSeedCorpus pins the random-property schedules: a regression seen
// once under a fresh seed gets its seed appended here forever.
var faultSeedCorpus = []int64{1, 7, 23, 99, 404, 1717, 8080, 31337}

// deadlineOps enumerates the bounded collectives under test. Each runs on
// a survivor thread and returns that thread's outcome.
var deadlineOps = []struct {
	name string
	// needsAll reports whether every survivor transitively waits on every
	// rank (so a single death must error on ALL survivors, not just some).
	needsAll bool
	run      func(th Thread, root int, d float64) error
}{
	{"bcast", false, func(th Thread, root int, d float64) error {
		var data []byte
		if th.Rank() == root {
			data = []byte("payload")
		}
		_, err := BcastDeadline(th, root, data, d)
		return err
	}},
	{"allreduce", true, func(th Thread, root int, d float64) error {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(th.Rank()))
		_, err := AllReduceDeadline(th, buf, sumOp, d)
		return err
	}},
	{"barrier", true, func(th Thread, root int, d float64) error {
		return BarrierDeadline(th, d)
	}},
}

// runWithDeadRank runs op on a P-thread chan group with one rank parked
// (never entering the collective — the shape of an abrupt death the
// fault injector's Kill produces over a fabric) and returns each
// survivor's outcome. Fails the test if the survivors do not all return
// within the watchdog window, i.e. on any deadlock.
func runWithDeadRank(t *testing.T, P, victim, root int, d float64,
	op func(th Thread, root int, d float64) error) []error {
	t.Helper()
	g := NewChanGroup("prop", P)
	gate := make(chan struct{})
	results := make([]error, P)
	var survivors sync.WaitGroup
	survivors.Add(P - 1)
	var all sync.WaitGroup
	all.Add(1)
	go func() {
		defer all.Done()
		g.Run(func(th Thread) {
			if th.Rank() == victim {
				<-gate // parked: dead to the group, alive to the runtime
				return
			}
			defer survivors.Done()
			results[th.Rank()] = op(th, root, d)
		})
	}()
	done := make(chan struct{})
	go func() { survivors.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("deadlock: survivors still blocked (P=%d victim=%d root=%d)", P, victim, root)
	}
	close(gate)
	all.Wait()
	return results
}

// TestFaultCollectivePropertySingleDeath is the property test of the
// deadline collectives: for every pinned seed, a random program size,
// victim, root, and collective — a single silent rank must never deadlock
// the survivors, and every error must be a RankError naming the victim.
func TestFaultCollectivePropertySingleDeath(t *testing.T) {
	baseline := leaktest.Baseline()
	for _, seed := range faultSeedCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			P := 2 + rng.Intn(7) // 2..8
			victim := rng.Intn(P)
			root := rng.Intn(P)
			op := deadlineOps[rng.Intn(len(deadlineOps))]
			d := 0.03 + 0.02*rng.Float64() // 30–50ms

			results := runWithDeadRank(t, P, victim, root, d, op.run)
			for r, err := range results {
				if r == victim {
					continue
				}
				if err == nil {
					// Legitimate for shapes that never wait on the
					// victim (e.g. a Bcast leaf's death is invisible
					// to the root) — but never for the all-to-all ops.
					if op.needsAll || victim == root {
						t.Errorf("P=%d %s root=%d: rank %d succeeded despite dead rank %d",
							P, op.name, root, r, victim)
					}
					continue
				}
				var re *RankError
				if !errors.As(err, &re) {
					t.Errorf("P=%d %s root=%d: rank %d error not rank-attributed: %v",
						P, op.name, root, r, err)
					continue
				}
				if re.Rank != victim {
					t.Errorf("P=%d %s root=%d: rank %d blamed rank %d, want %d (%v)",
						P, op.name, root, r, re.Rank, victim, err)
				}
			}
		})
	}
	// No scenario may strand a watchdog, ping responder, or receiver.
	leaktest.Check(t, baseline)
}

// TestFaultBarrierDeadlineBound pins the acceptance bound directly: with
// one dead rank, every survivor of a barrier returns a RankError naming it
// within 2× the configured deadline (plus scheduler slack).
func TestFaultBarrierDeadlineBound(t *testing.T) {
	const P, victim = 4, 2
	const d = 0.2
	start := time.Now()
	results := runWithDeadRank(t, P, victim, -1, d,
		func(th Thread, _ int, d float64) error { return BarrierDeadline(th, d) })
	elapsed := time.Since(start).Seconds()
	for r, err := range results {
		if r == victim {
			continue
		}
		var re *RankError
		if !errors.As(err, &re) || re.Rank != victim {
			t.Fatalf("rank %d: err = %v, want RankError{Rank: %d}", r, err, victim)
		}
	}
	if limit := 2*d + 0.5; elapsed > limit {
		t.Fatalf("survivors took %.3fs, want under %.3fs (2x deadline + slack)", elapsed, limit)
	}
}

// TestFaultStuckButAliveRankGetsGrace distinguishes dead from merely slow:
// a rank that enters the collective late — but within the liveness grace —
// must not be blamed, because a thread blocked inside another deadline
// receive answers pings while it waits.
func TestFaultStuckButAliveRankGetsGrace(t *testing.T) {
	const P = 3
	const d = 0.3
	g := NewChanGroup("slow", P)
	results := make([]error, P)
	g.Run(func(th Thread) {
		if th.Rank() == 2 {
			// Late but alive: well past the deadline's first phase, well
			// inside the ping grace window.
			th.Sleep(d / 2)
		}
		results[th.Rank()] = BarrierDeadline(th, d)
	})
	for r, err := range results {
		if err != nil {
			t.Fatalf("rank %d: slow-but-alive peer blamed: %v", r, err)
		}
	}
}

// TestFaultRecvTimeoutComm pins the point-to-point bounded receive on the
// Comm interface: a pending message returns immediately; silence returns
// ok=false near the deadline without leaking a receiver.
func TestFaultRecvTimeoutComm(t *testing.T) {
	baseline := leaktest.Baseline()
	g := NewChanGroup("p2p", 2)
	g.Run(func(th Thread) {
		const tag Tag = 17
		if th.Rank() == 0 {
			th.Send(1, tag, []byte("x"))
			// Nothing ever arrives for rank 0: the timeout path.
			start := time.Now()
			if _, ok := RecvTimeout(th, 1, tag, 0.05); ok {
				panic("received a message nobody sent")
			}
			if w := time.Since(start); w > 2*time.Second {
				panic(fmt.Sprintf("RecvTimeout overshot: %v", w))
			}
		} else {
			m, ok := RecvTimeout(th, 0, tag, 1.0)
			if !ok || string(m.Data) != "x" {
				panic(fmt.Sprintf("RecvTimeout lost the message: %v %q", ok, m.Data))
			}
		}
	})
	leaktest.Check(t, baseline)
}
