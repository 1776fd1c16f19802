// Deadline-aware collectives: the failure-detection layer of the RTS.
//
// The plain collectives (Bcast, Gather, ...) keep MPI's model — a dead peer
// hangs the program, because reliable delivery is assumed. The *Deadline
// variants below bound every receive and convert a silent peer into a
// structured, rank-attributed error on every surviving rank, without adding
// a single branch to the plain collectives' hot path (a nil deadline
// context short-circuits to the blocking Recv).
//
// # Detection and attribution protocol
//
// A rank whose receive from peer S is still unsatisfied at the deadline
// must distinguish "S is dead" from "S is alive but stuck waiting on the
// real victim further down the chain" — blaming a stuck-but-alive rank
// would mis-attribute the failure. Three reserved tags implement the
// distinction:
//
//   - TagPing/TagPong — at the deadline the waiter pings S. Every rank
//     parked inside a deadline-aware receive answers pings from its receive
//     loop, which wakes on every arrival, so an alive S pongs even while
//     stuck. No pong within the grace period ⇒ S is dead: the waiter
//     broadcasts a TagAbort naming S to all ranks and returns
//     RankError{Rank: S}.
//   - TagAbort — a rank that receives an abort (every deadline-aware
//     receive also probes for one) adopts its verdict and returns the same
//     RankError, so attribution converges program-wide on the rank the
//     direct witness observed.
//
// A pong extends the wait (bounded: total at most 2× the deadline), during
// which the stuck peer's own deadline fires and its abort — naming the true
// victim — arrives. Every path is bounded, so no rank ever blocks forever:
// worst-case return is 2× the configured deadline per blocked receive.
//
// # Poisoned communicators
//
// After any collective returns a RankError the communicator must be
// considered poisoned: aborts, pings and stale data frames from the failed
// round may still be in flight, and a subsequent collective could consume
// them. Callers are expected to tear down (the POA faults and deactivates);
// resuming collective work on a poisoned communicator is not supported.
package rts

import (
	"fmt"

	"pardis/internal/cdr"
)

// RankError is the structured failure of a deadline-aware collective,
// attributing the abort to a computing-thread rank.
type RankError struct {
	Rank int    // the implicated rank (-1 when unknowable)
	Op   string // the collective that aborted
}

// Error implements error.
func (e *RankError) Error() string {
	return fmt.Sprintf("rts: %s aborted: rank %d unresponsive past deadline", e.Op, e.Rank)
}

// BcastDeadline is Bcast with every receive bounded by the deadline
// (seconds on th's clock). On failure every blocked rank returns a
// *RankError naming the unresponsive rank; ranks whose subtree completed
// before the failure may return success. See the package comment on
// communicator poisoning.
func BcastDeadline(th Thread, root int, data []byte, seconds float64) ([]byte, error) {
	CheckRank(th, root)
	return bcastD(th, newDctx(th, "bcast", seconds), root, data)
}

// AllReduceDeadline is AllReduce with bounded receives (see BcastDeadline).
func AllReduceDeadline(th Thread, data []byte, op ReduceOp, seconds float64) ([]byte, error) {
	return allReduceD(th, newDctx(th, "allreduce", seconds), data, op)
}

// BarrierDeadline is a dissemination barrier with bounded receives.
func BarrierDeadline(th Thread, seconds float64) error {
	return barrierD(th, newDctx(th, "barrier", seconds))
}

// RecvTimeout is the point-to-point deadline receive: the next message from
// src with tag, or ok=false once seconds have passed on th's clock, parked
// on th's timed wait between probes. It carries none of the collective
// abort protocol.
func RecvTimeout(th Thread, src int, tag Tag, seconds float64) (Message, bool) {
	until := th.Elapsed() + seconds
	for !probeQueued(th, src, tag) {
		if th.Elapsed() >= until {
			return Message{}, false
		}
		th.WaitUntil(until)
	}
	return th.Recv(src, tag), true
}

// probeQueued is c's Probe for a receive that parks on its thread's wait
// when it finds nothing: a thread over a nexus endpoint looks only at what
// has been delivered, so the wait's read of an in-place TCP connection is
// the receive's only look at the socket. Other Comms probe.
func probeQueued(c Comm, src int, tag Tag) bool {
	if q, ok := c.(interface{ probeQueued(int, Tag) bool }); ok {
		return q.probeQueued(src, tag)
	}
	return c.Probe(src, tag)
}

// dctx is the deadline state threaded through one collective call.
type dctx struct {
	th     Thread
	op     string
	budget float64 // configured deadline, seconds
	until  float64 // instant on th's clock at which the current wait expires
}

func newDctx(th Thread, op string, seconds float64) *dctx {
	return &dctx{th: th, op: op, budget: seconds, until: th.Elapsed() + seconds}
}

// minPongGrace is the least time an overdue receive gives a pinged peer to
// answer, however small the deadline: long enough for a live peer parked in
// its own deadline receive to wake and pong.
const minPongGrace = 160e-6

// trySend delivers a best-effort control message (ping, pong, abort): the
// RTS data contract panics on sends to dead peers (MPI's reliable-delivery
// model), but the failure-detection protocol by definition talks to peers
// that may be dead, and its messages are advisory.
func trySend(c Comm, dst int, tag Tag, data []byte) {
	defer func() { _ = recover() }()
	c.Send(dst, tag, data)
}

// recvD is the deadline-aware receive behind every collective core. With a
// nil context it is exactly c.Recv; with one it probes for the wanted
// message while answering liveness pings and watching for abort verdicts,
// parked on the thread's timed wait in between.
func recvD(c Comm, d *dctx, src int, tag Tag) (Message, error) {
	if d == nil {
		return c.Recv(src, tag), nil
	}
	// Waits for the message until d.until; then, src pinged, for its pong;
	// then, src alive, for its own verdict. at is when the current wait ends.
	var pinged, confirmed bool
	at := d.until
	for {
		if probeQueued(c, src, tag) {
			return c.Recv(src, tag), nil
		}
		// Answer pings so a rank stuck here is not mistaken for dead by
		// the peers waiting on *it*.
		for probeQueued(c, AnySource, TagPing) {
			m := c.Recv(AnySource, TagPing)
			trySend(c, m.Src, TagPong, nil)
		}
		if probeQueued(c, AnySource, TagAbort) {
			return Message{}, d.adoptAbort(c)
		}
		now := d.th.Elapsed()
		switch {
		case !pinged && now >= at:
			if src == AnySource {
				return Message{}, d.blame(c, -1)
			}
			// Overdue. Before blaming src, distinguish dead from stuck: an
			// alive-but-stuck src answers the ping from its own loop above.
			pinged = true
			at = now + max(d.budget/4, minPongGrace)
			trySend(c, src, TagPing, nil)
		case pinged && !confirmed && probeQueued(c, src, TagPong):
			c.Recv(src, TagPong)
			// Alive but stuck: its own deadline fires within this hard-
			// bounded extension, and its abort names the true victim.
			confirmed = true
			at = d.until + d.budget
		case pinged && now >= at:
			// No pong in the grace, or no verdict in the extension.
			return Message{}, d.blame(c, src)
		}
		d.th.WaitUntil(at)
	}
}

// blame broadcasts an abort naming the culprit to every other live-looking
// rank and returns the matching RankError. The culprit is skipped — it is
// dead or will reach its own verdict.
func (d *dctx) blame(c Comm, culprit int) error {
	e := cdr.NewEncoder(8)
	e.PutLong(int32(culprit))
	pay := e.Bytes()
	me := c.Rank()
	for r := 0; r < c.Size(); r++ {
		if r != me && r != culprit {
			trySend(c, r, TagAbort, pay)
		}
	}
	return &RankError{Rank: culprit, Op: d.op}
}

// adoptAbort consumes one abort notice and adopts its verdict. It is not
// re-broadcast: the original witness already told everyone.
func (d *dctx) adoptAbort(c Comm) error {
	m := c.Recv(AnySource, TagAbort)
	dec := cdr.NewDecoder(m.Data)
	culprit := int(dec.GetLong())
	if dec.Err() != nil || culprit < -1 || culprit >= c.Size() {
		culprit = m.Src
	}
	return &RankError{Rank: culprit, Op: d.op}
}
