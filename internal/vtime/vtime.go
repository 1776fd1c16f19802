// Package vtime implements a deterministic discrete-event simulation
// substrate: logical processes with virtual clocks, timestamped channels and
// serially-reusable resources.
//
// PARDIS' published evaluation ran on a testbed of SGI and IBM SP/2 machines
// joined by ATM and Ethernet links. This package replaces that hardware with
// a conservative sequential discrete-event scheduler: processes are
// goroutines, but exactly one executes at any moment — always the one with
// the globally minimal virtual clock — so every simulated experiment is
// reproducible bit-for-bit. The machine and link models built on top live in
// package simnet.
//
// Scheduling invariant: the running process is the one with the minimum wake
// time across the simulation, and virtual time never decreases globally.
// Consequently a process resumed from a receive at time t can safely consume
// the earliest message with arrival <= t: any message sent in the future of
// the simulation carries an arrival stamp >= t.
package vtime

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Time is a virtual time stamp or duration in nanoseconds.
type Time int64

// Infinity is a wake time meaning "not schedulable".
const Infinity = Time(math.MaxInt64)

// Seconds converts a duration in seconds to a virtual Time.
func Seconds(s float64) Time {
	if math.IsInf(s, 1) {
		return Infinity
	}
	return Time(s * 1e9)
}

// Forever is what Wall returns for a span no time.Duration can hold.
const Forever = time.Duration(math.MaxInt64)

// Wall converts a span in seconds to a time.Duration for the wall clock,
// saturating where a plain conversion would overflow and turn negative:
// a span beyond Duration's range, +Inf included, is Forever, and a wait that
// long parks with no timer. A span that is not positive (NaN included) is 0.
func Wall(seconds float64) time.Duration {
	ns := seconds * float64(time.Second)
	switch {
	case !(ns > 0):
		return 0
	case ns >= float64(Forever): // 2⁶³; every float64 below it fits
		return Forever
	}
	return time.Duration(ns)
}

// Microseconds converts a duration in microseconds to a virtual Time.
func Microseconds(us float64) Time { return Time(us * 1e3) }

// Milliseconds converts a duration in milliseconds to a virtual Time.
func Milliseconds(ms float64) Time { return Time(ms * 1e6) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

type procState int

const (
	stateReady procState = iota // waiting for its turn; wake is its resume time
	stateRunning
	stateBlocked // waiting on channels; wake is the earliest known candidate
	stateDone
)

// Sim is one simulation instance. Create processes with Spawn, then call
// Run, which returns when every process has finished (or deadlock).
type Sim struct {
	procs    []*Proc
	yield    chan *Proc
	chanSeq  uint64
	running  bool
	finalNow Time
}

// NewSim returns an empty simulation.
func NewSim() *Sim {
	return &Sim{yield: make(chan *Proc)}
}

// Proc is a logical process. All Proc methods must be called from the
// goroutine executing the process body.
type Proc struct {
	sim  *Sim
	id   int
	name string
	now  Time
	wake Time
	st   procState

	resume chan struct{}

	// Receive state while blocked.
	waitMatch func(any) bool
	// watched are the channels whose arrivals end an Await.
	watched []*Chan

	daemon bool
	err    error
}

// Spawn registers a new process with the given body. It may be called before
// Run or from a running process (the child starts at the spawner's current
// time). The body runs on its own goroutine, interleaved deterministically.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		id:     len(s.procs),
		name:   name,
		st:     stateReady,
		resume: make(chan struct{}),
	}
	if s.running {
		// Called from a running process: inherit its clock. The scheduler
		// loop is waiting on s.yield, so the running process's clock is the
		// global minimum; starting the child there is conservative.
		p.wake = s.minRunningClock()
		p.now = p.wake
	}
	s.procs = append(s.procs, p)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.err = fmt.Errorf("vtime: process %q panicked: %v", p.name, r)
			}
			p.st = stateDone
			s.yield <- p
		}()
		<-p.resume // wait for first scheduling
		body(p)
	}()
	return p
}

func (s *Sim) minRunningClock() Time {
	for _, p := range s.procs {
		if p.st == stateRunning {
			return p.now
		}
	}
	return 0
}

// SetDaemon marks the process as a daemon: a simulation is considered
// complete when only daemon processes remain blocked (service loops such as
// the communication threads of the multi-threaded transport).
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Run executes the simulation to completion and returns the final virtual
// time (the maximum clock reached by any process). It returns an error on
// deadlock (a non-daemon process blocked forever) or if any process
// panicked.
func (s *Sim) Run() (Time, error) {
	s.running = true
	defer func() { s.running = false }()
	for {
		p := s.pick()
		if p == nil {
			if blocked := s.blockedProcs(); len(blocked) > 0 {
				return s.finalNow, fmt.Errorf("vtime: deadlock: processes blocked forever: %v", blocked)
			}
			// All done.
			for _, q := range s.procs {
				if q.err != nil {
					return s.finalNow, q.err
				}
			}
			return s.finalNow, nil
		}
		p.st = stateRunning
		if p.wake > p.now {
			p.now = p.wake
		}
		p.resume <- struct{}{}
		q := <-s.yield // p (same goroutine) yields back, possibly after spawning
		if q.now > s.finalNow {
			s.finalNow = q.now
		}
		if q.err != nil {
			return s.finalNow, q.err
		}
	}
}

// pick returns the schedulable process with the minimal wake time
// (ties broken by process id), or nil if none is schedulable.
func (s *Sim) pick() *Proc {
	var best *Proc
	for _, p := range s.procs {
		schedulable := p.st == stateReady || (p.st == stateBlocked && p.wake < Infinity)
		if !schedulable {
			continue
		}
		if best == nil || p.wake < best.wake {
			best = p
		}
	}
	return best
}

func (s *Sim) blockedProcs() []string {
	var names []string
	for _, p := range s.procs {
		if p.st == stateBlocked && !p.daemon {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Now returns the process's current virtual time.
func (p *Proc) Now() Time { return p.now }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's stable id (spawn order).
func (p *Proc) ID() int { return p.id }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Advance moves the process's clock forward by d, yielding to any process
// with an earlier wake time. Negative durations are treated as zero.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	p.wake = p.now + d
	p.st = stateReady
	p.yieldAndWait()
}

// AdvanceTo moves the process's clock to at least t.
func (p *Proc) AdvanceTo(t Time) {
	if t <= p.now {
		return
	}
	p.Advance(t - p.now)
}

func (p *Proc) yieldAndWait() {
	p.sim.yield <- p
	<-p.resume
	if p.wake > p.now {
		p.now = p.wake
	}
	p.st = stateRunning
}
