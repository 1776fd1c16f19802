package nexus

import (
	"hash/fnv"
	"math/rand"
	"sync"

	"pardis/internal/obs"
)

// FaultPlan is the seeded injection schedule of a FaultInjector: per-frame
// probabilities for each fault kind, applied independently in a fixed order
// (drop, truncate, duplicate, delay) so a given seed always produces the
// same decision sequence on a given endpoint.
type FaultPlan struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Truncate is the probability a frame is delivered cut to half its
	// length (minimum 1 byte removed), modeling a torn write.
	Truncate float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Delay is the probability a frame is held back and delivered only
	// after the next DelaySpan sends on the same endpoint — a *logical*
	// delay, deterministic on every fabric including the simulated one,
	// that reorders the held frame behind later traffic. A held frame with
	// no subsequent sends degrades to a drop (flushed by Close), which is
	// exactly the shape a retry must recover from.
	Delay float64
	// DelaySpan is the number of later sends a delayed frame waits behind
	// (default 2).
	DelaySpan int
}

// FaultStats counts injected faults, for test assertions and reporting.
type FaultStats struct {
	Sent, Dropped, Truncated, Duplicated, Delayed, Blackholed int
}

// FaultInjector wraps endpoints of any fabric (in-process, TCP, simulated)
// in a deterministic fault-injecting layer. All injection happens on the
// *sender* side, synchronously on the sending thread, which is why it works
// identically on the single-threaded simulated fabric and the concurrent
// real ones: no extra goroutines, no wall-clock timers, no per-fabric code.
//
// One injector is shared by every endpoint of the program under test; each
// wrapped endpoint derives its own rand stream from (seed, address) so the
// schedule is reproducible per endpoint regardless of goroutine
// interleaving across endpoints.
type FaultInjector struct {
	seed uint64
	plan FaultPlan

	mu   sync.Mutex
	dead map[Addr]bool

	// Per-kind tallies are obs counters so the injection hot path never
	// takes fi.mu for counting. Stats is a thin snapshot read.
	sent, dropped, truncated, duplicated, delayed, blackholed obs.Counter
}

// NewFaultInjector creates an injector with the given seed and plan.
func NewFaultInjector(seed uint64, plan FaultPlan) *FaultInjector {
	if plan.DelaySpan <= 0 {
		plan.DelaySpan = 2
	}
	return &FaultInjector{seed: seed, plan: plan, dead: map[Addr]bool{}}
}

// Kill marks an address dead: every frame to or from it is blackholed from
// now on. This models abrupt peer death (or a network partition of one
// node) as the receiver experiences it — silence, not an error — which is
// the failure only deadlines can surface. Safe to call from any goroutine.
func (fi *FaultInjector) Kill(a Addr) {
	fi.mu.Lock()
	fi.dead[a] = true
	fi.mu.Unlock()
}

// Alive reports whether the address has not been killed.
func (fi *FaultInjector) Alive(a Addr) bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return !fi.dead[a]
}

// Stats returns a snapshot of the injection counters.
func (fi *FaultInjector) Stats() FaultStats {
	return FaultStats{
		Sent:       int(fi.sent.Load()),
		Dropped:    int(fi.dropped.Load()),
		Truncated:  int(fi.truncated.Load()),
		Duplicated: int(fi.duplicated.Load()),
		Delayed:    int(fi.delayed.Load()),
		Blackholed: int(fi.blackholed.Load()),
	}
}

// Wrap returns ep with the injector's fault schedule applied to its send
// path. Receives pass through untouched — every injected fault is a
// property of the channel, applied at the sending end.
func (fi *FaultInjector) Wrap(ep Endpoint) Endpoint {
	h := fnv.New64a()
	h.Write([]byte(ep.Addr()))
	return &faultEP{
		inner: ep,
		fi:    fi,
		rng:   rand.New(rand.NewSource(int64(fi.seed ^ h.Sum64()))),
	}
}

// heldFrame is a delayed frame awaiting its release countdown.
type heldFrame struct {
	to    Addr
	data  []byte
	after int // deliver when this many further sends have happened
}

type faultEP struct {
	inner Endpoint
	fi    *FaultInjector

	// mu orders concurrent senders through the rng and held queue so the
	// wrapper is as concurrency-safe as the fabric it wraps.
	mu   sync.Mutex
	rng  *rand.Rand
	held []heldFrame
}

func (e *faultEP) Addr() Addr                 { return e.inner.Addr() }
func (e *faultEP) Recv() (Frame, error)       { return e.inner.Recv() }
func (e *faultEP) Poll() (Frame, bool, error) { return e.inner.Poll() }

// ConcurrentSendSafe forwards the wrapped fabric's capability: the wrapper
// itself serializes on its own mutex.
func (e *faultEP) ConcurrentSendSafe() bool {
	cs, ok := e.inner.(ConcurrentSender)
	return ok && cs.ConcurrentSendSafe()
}

// SetRecvNotify forwards RecvNotifier when the wrapped fabric supports it.
// Receives pass straight through, so arrival notification is unaffected by
// injected send faults.
func (e *faultEP) SetRecvNotify(fn func()) bool {
	rn, ok := e.inner.(RecvNotifier)
	return ok && rn.SetRecvNotify(fn)
}

// watchRead forwards the hook a Waiter reads a TCP channel in place
// through: receives pass straight through, so the waiter may read the
// wrapped channel's connection as it would the channel's.
func (e *faultEP) watchRead(fn func()) (*tcpChan, bool) {
	if h, ok := e.inner.(readWatcher); ok {
		return h.watchRead(fn)
	}
	return nil, e.SetRecvNotify(fn)
}

func (e *faultEP) Close() error {
	// Held frames die with the endpoint: an endpoint that closes before
	// its delayed traffic flushed has effectively dropped it.
	e.mu.Lock()
	e.held = nil
	e.mu.Unlock()
	return e.inner.Close()
}

func (e *faultEP) Send(to Addr, data []byte) error {
	return e.SendV(to, data)
}

func (e *faultEP) SendV(to Addr, bufs ...[]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	fi := e.fi
	fi.mu.Lock()
	blackhole := fi.dead[to] || fi.dead[e.inner.Addr()]
	fi.mu.Unlock()
	fi.sent.Inc()
	if blackhole {
		fi.blackholed.Inc()
		return nil // a dead peer is silent, never an error
	}

	// The injected faults operate on whole frames, so the vectored send is
	// flattened first — a copy the production path never pays, but the
	// injector is a test harness, not a transport.
	frame := concat(bufs)
	plan := &e.fi.plan
	// All four decisions are drawn for every frame, first-match-wins, so
	// the rand stream advances identically no matter which kinds are
	// enabled — toggling one fault kind never shifts the others' schedule.
	drop := e.roll(plan.Drop)
	trunc := e.roll(plan.Truncate)
	dup := e.roll(plan.Dup)
	delay := e.roll(plan.Delay)
	switch {
	case drop:
		fi.dropped.Inc()
	case trunc:
		fi.truncated.Inc()
		cut := len(frame) / 2
		if cut >= len(frame) && len(frame) > 0 {
			cut = len(frame) - 1
		}
		if err := e.inner.Send(to, frame[:cut]); err != nil {
			return err
		}
	case dup:
		fi.duplicated.Inc()
		if err := e.inner.Send(to, frame); err != nil {
			return err
		}
		if err := e.inner.Send(to, frame); err != nil {
			return err
		}
	case delay:
		fi.delayed.Inc()
		e.held = append(e.held, heldFrame{to: to, data: frame, after: plan.DelaySpan})
	default:
		if err := e.inner.Send(to, frame); err != nil {
			return err
		}
	}
	return e.flushHeld()
}

// roll draws one deterministic decision from the endpoint's rand stream.
func (e *faultEP) roll(p float64) bool {
	return e.rng.Float64() < p
}

// flushHeld advances every held frame's countdown by the send that just
// happened and delivers the ones that came due. Caller holds e.mu.
func (e *faultEP) flushHeld() error {
	kept := e.held[:0]
	var due []heldFrame
	for _, h := range e.held {
		h.after--
		if h.after <= 0 {
			due = append(due, h)
		} else {
			kept = append(kept, h)
		}
	}
	e.held = kept
	for _, h := range due {
		// A delayed frame's eventual delivery is not itself re-faulted:
		// one decision per logical send keeps the schedule analyzable.
		if err := e.inner.Send(h.to, h.data); err != nil {
			return err
		}
	}
	return nil
}
