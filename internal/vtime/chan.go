package vtime

// message is a timestamped value in a Chan's mailbox.
type message struct {
	val     any
	arrival Time
	seq     uint64
}

// Chan is an unbounded mailbox of timestamped messages. Sends never block;
// receives block (in virtual time) until a matching message's arrival stamp
// is reached. Determinism: among deliverable messages the one with the
// earliest arrival wins, ties broken by send order.
type Chan struct {
	sim     *Sim
	name    string
	queue   []message
	waiters []*Proc
}

// NewChan creates a mailbox owned by the simulation.
func NewChan(s *Sim, name string) *Chan {
	return &Chan{sim: s, name: name}
}

// Name returns the channel name given at creation.
func (c *Chan) Name() string { return c.name }

// Len reports the number of queued (not yet received) messages, regardless
// of arrival time.
func (c *Chan) Len() int { return len(c.queue) }

// Send enqueues v with arrival time p.Now()+delay and wakes any process
// blocked on c whose match function accepts v. The sender does not yield.
func (p *Proc) Send(c *Chan, v any, delay Time) {
	if delay < 0 {
		delay = 0
	}
	m := message{val: v, arrival: p.now + delay, seq: c.sim.chanSeq}
	c.sim.chanSeq++
	c.queue = append(c.queue, m)
	for _, w := range c.waiters {
		if w.st != stateBlocked {
			continue
		}
		if w.waitMatch != nil && !w.waitMatch(v) {
			continue
		}
		cand := m.arrival
		if w.now > cand {
			cand = w.now
		}
		if cand < w.wake {
			w.wake = cand
		}
	}
}

// SendAt enqueues v with an absolute arrival time (clamped to now).
func (p *Proc) SendAt(c *Chan, v any, arrival Time) {
	d := arrival - p.now
	p.Send(c, v, d)
}

// Recv blocks until a message is deliverable on c and returns it, advancing
// the clock to the message's arrival if needed.
func (p *Proc) Recv(c *Chan) any {
	v, _ := p.RecvAny([]*Chan{c}, nil)
	return v
}

// RecvMatch blocks until a message accepted by match is deliverable on c.
func (p *Proc) RecvMatch(c *Chan, match func(any) bool) any {
	v, _ := p.RecvAny([]*Chan{c}, match)
	return v
}

// RecvAny blocks until a message accepted by match (nil = any) is
// deliverable on one of the channels; it returns the message and the index
// of the channel it came from. Among all candidate messages the earliest
// arrival wins; ties are broken by send order.
func (p *Proc) RecvAny(chans []*Chan, match func(any) bool) (any, int) {
	for {
		// Earliest matching message across the channels.
		bestChan, bestIdx := -1, -1
		var best message
		for ci, c := range chans {
			for qi, m := range c.queue {
				if match != nil && !match(m.val) {
					continue
				}
				if bestChan == -1 || m.arrival < best.arrival ||
					(m.arrival == best.arrival && m.seq < best.seq) {
					bestChan, bestIdx, best = ci, qi, m
				}
			}
		}
		if bestChan >= 0 && best.arrival <= p.now {
			c := chans[bestChan]
			c.queue = append(c.queue[:bestIdx:bestIdx], c.queue[bestIdx+1:]...)
			return best.val, bestChan
		}
		// Block until the candidate (or an earlier future send) is due.
		wake := Infinity
		if bestChan >= 0 {
			wake = best.arrival
		}
		p.block(chans, match, wake)
		// Re-scan: the wake we were resumed at is the arrival of some
		// matching message (or an earlier one that landed meanwhile).
	}
}

// block parks p until wake, or until an earlier arrival of a message match
// accepts (nil = any) on one of chans — a message sent meanwhile lowers the
// wake time (Send).
func (p *Proc) block(chans []*Chan, match func(any) bool, wake Time) {
	p.waitMatch = match
	p.st = stateBlocked
	p.wake = max(wake, p.now)
	for _, c := range chans {
		c.addWaiter(p)
	}
	p.yieldAndWait()
	for _, c := range chans {
		c.removeWaiter(p)
	}
	p.waitMatch = nil
}

// Watch adds c to the channels whose arrivals end p's Await.
func (p *Proc) Watch(c *Chan) { p.watched = append(p.watched, c) }

// Await parks p until the next arrival on a watched channel or until the
// clock reaches until, whichever is first, and consumes nothing: the timed
// wait of a process that probes between waits. Only arrivals after now
// count — what is deliverable already was there for the probe.
func (p *Proc) Await(until Time) {
	wake := until
	for _, c := range p.watched {
		for _, m := range c.queue {
			if m.arrival > p.now {
				wake = min(wake, m.arrival)
			}
		}
	}
	if wake > p.now {
		p.block(p.watched, nil, wake)
	}
}

// Poll returns the earliest matching message already deliverable
// (arrival <= now) without blocking; ok is false if there is none.
// A nil match accepts any message.
func (p *Proc) Poll(c *Chan, match func(any) bool) (v any, ok bool) {
	bestIdx := -1
	var best message
	for qi, m := range c.queue {
		if m.arrival > p.now {
			continue
		}
		if match != nil && !match(m.val) {
			continue
		}
		if bestIdx == -1 || m.arrival < best.arrival ||
			(m.arrival == best.arrival && m.seq < best.seq) {
			bestIdx, best = qi, m
		}
	}
	if bestIdx == -1 {
		return nil, false
	}
	c.queue = append(c.queue[:bestIdx:bestIdx], c.queue[bestIdx+1:]...)
	return best.val, true
}

// PeekMatch reports whether a matching message is already deliverable
// (arrival <= now) without consuming it. A nil match accepts any message.
func (p *Proc) PeekMatch(c *Chan, match func(any) bool) bool {
	for _, m := range c.queue {
		if m.arrival > p.now {
			continue
		}
		if match == nil || match(m.val) {
			return true
		}
	}
	return false
}

func (c *Chan) addWaiter(p *Proc) {
	for _, w := range c.waiters {
		if w == p {
			return
		}
	}
	c.waiters = append(c.waiters, p)
}

func (c *Chan) removeWaiter(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Resource models a serially-reusable facility (a network link, a CPU, a
// disk): acquisitions are granted in global virtual-time order and each
// occupies the resource for a hold duration.
//
// Because the scheduler executes processes in non-decreasing global time
// order, mutating freeAt from the running process is deterministic.
type Resource struct {
	name   string
	freeAt Time
	busy   Time // cumulative occupancy, for utilization reports
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire reserves the resource for hold units starting no earlier than the
// process's current time, and returns the start time of the reservation.
// The caller decides whether to Advance to start+hold (synchronous use, e.g.
// a single-threaded sender occupied for the whole transfer) or only part of
// it (pipelined use).
func (r *Resource) Acquire(p *Proc, hold Time) (start Time) {
	start = p.now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + hold
	r.busy += hold
	return start
}

// Busy reports cumulative occupancy.
func (r *Resource) Busy() Time { return r.busy }

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }
