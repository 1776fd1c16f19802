// Package rts defines PARDIS' run-time system interface: the minimal
// message-passing contract through which the ORB extends into the
// communication domain of a parallel client or server.
//
// The paper deliberately restricts this interface to "a very small subset of
// basic message passing primitives" plus a way to distinguish PARDIS
// messages from application traffic (reserved tags), so that MPI, Tulip and
// POOMA's communication layer can all implement it. This package provides
// the same contract two ways:
//
//   - endpoint.go — the real-time computing thread: one nexus.Endpoint, a
//     rank table and one mailbox matched by (source, tag). ChanGroup
//     (chancomm.go) runs a program's threads as goroutines over a private
//     in-process fabric; JoinTCP (tcpcomm.go) runs them as separate
//     processes over TCP.
//   - simcomm.go — the same semantics on the vtime virtual clock with
//     simnet-modeled transfer costs; used by the experiment harness.
package rts

import (
	"fmt"
	"math/bits"

	"pardis/internal/cdr"
	"pardis/internal/nexus"
)

// Tag labels a message class. Tags at or above ReservedBase are reserved
// for PARDIS itself; application code must stay below it (the paper's
// reserved-tag requirement).
type Tag uint32

// ReservedBase is the first PARDIS-internal tag.
const ReservedBase Tag = 0xF000_0000

// Reserved internal tags.
const (
	TagDSeq  Tag = ReservedBase + iota // distributed-sequence internal traffic (redistribution, At)
	TagAbort                           // deadline-aware collectives: rank-attributed abort notice
	TagPing                            // deadline-aware collectives: liveness probe to a silent peer
	TagPong                            // deadline-aware collectives: liveness probe answer
)

// Per-round collective tags. Every tree collective derives one tag per
// round from its own block above ReservedBase, so a message can only ever
// match the Recv of the same round of the same collective kind; together
// with explicit-rank receives and the per-(src, tag) FIFO delivery
// guarantee this keeps back-to-back collectives from interleaving — the
// (src, dst, tag) schedule of a collective is a deterministic function of
// (rank, root, size), so the i-th send on a channel is always consumed by
// the i-th Recv for it (see DESIGN.md §9).
//
// collRounds bounds the rounds of the logarithmic algorithms (64 covers
// any conceivable P); the ring all-gather has P-1 rounds but a strict
// chain dependency between them, so one tag suffices for the whole ring.
const (
	collRounds           = 64
	tagBcastBase     Tag = ReservedBase + 0x100
	tagGatherBase        = tagBcastBase + collRounds
	tagAllGatherBase     = tagGatherBase + collRounds
	tagBarrierBase       = tagAllGatherBase + collRounds
	tagReduceBase        = tagBarrierBase + collRounds
	tagRing              = tagReduceBase + collRounds
)

func bcastTag(round int) Tag     { return tagBcastBase + Tag(round) }
func gatherTag(round int) Tag    { return tagGatherBase + Tag(round) }
func allGatherTag(round int) Tag { return tagAllGatherBase + Tag(round) }
func barrierTag(round int) Tag   { return tagBarrierBase + Tag(round) }
func reduceTag(round int) Tag    { return tagReduceBase + Tag(round) }

// AnySource matches any sending rank in Recv/Probe.
const AnySource = -1

// Message is a received message.
type Message struct {
	Src  int
	Tag  Tag
	Data []byte
}

// Comm is the run-time system interface. One Comm value belongs to exactly
// one computing thread (its Rank) of a parallel program of Size threads.
// All methods must be called from that thread.
type Comm interface {
	// Rank is this computing thread's index in [0, Size).
	Rank() int
	// Size is the number of computing threads in the program.
	Size() int
	// Send delivers a copy of data to thread dst with the given tag, so the
	// caller may reuse data as soon as Send returns. It may block for the
	// duration of the wire occupancy (single-threaded transport, as in
	// NexusLite) but not for the receiver.
	Send(dst int, tag Tag, data []byte)
	// Recv blocks until a message with the given tag from src (or from
	// anyone if src == AnySource) is available and returns it. Messages
	// with equal (src, tag) are delivered in send order. The returned Data
	// is the receiver's: no other thread holds it, and it stays stable
	// indefinitely.
	Recv(src int, tag Tag) Message
	// Probe reports whether Recv(src, tag) would return without blocking.
	Probe(src int, tag Tag) bool
	// Barrier blocks until all threads of the program have entered it.
	Barrier()
}

// Thread is the execution context handed to SPMD application code: the
// communication interface plus a cost model for local computation. On the
// real-time backend Compute is a no-op (the code does real work); on the
// simulated backend it advances the virtual clock by refSeconds scaled by
// the host's node speed.
type Thread interface {
	Comm
	// TimedWait is the thread's one timed wait, woken by its rts endpoint
	// and the endpoints it watches. Elapsed is virtual on a simulated thread
	// (Virtual), the process's wall clock elsewhere: the clock of every
	// deadline, span, latency histogram and SLO stamp of its ORB and POA.
	nexus.TimedWait
	// Compute charges refSeconds of reference-machine CPU work.
	Compute(refSeconds float64)
	// Sleep idles the thread for the given duration on its clock through
	// whatever arrives meanwhile: the pacing of a program's own loop. A
	// wait for a frame uses WaitUntil.
	Sleep(seconds float64)
	// HostName identifies the machine this thread runs on.
	HostName() string
}

// CheckRank panics if dst is not a valid rank for c — misuse of the RTS
// interface is a programming error, not a recoverable condition.
func CheckRank(c Comm, dst int) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("rts: rank %d out of range [0,%d)", dst, c.Size()))
	}
}

// Buffer ownership of collective results (the collective extension of the
// DESIGN.md §7 frame-ownership rules):
//
//   - Send copies, so a buffer passed into a collective is the caller's
//     again once the collective returns.
//   - The root of Bcast gets its own slice back (identity-preserved); every
//     other thread gets a slice of a frame it received, which is its own:
//     the bytes are stable indefinitely and read-only.
//   - Gather/AllGather/Reduce results follow the same rule: a thread's own
//     contribution comes back as the very slice it passed (nil included);
//     peer blocks alias received frames. Empty and nil blocks are
//     equivalent on the wire — a peer's nil contribution may surface as an
//     empty non-nil slice.

// Bcast distributes root's data to every thread; each thread passes its
// own (possibly nil for non-roots) data and receives root's, along a
// binomial tree (⌈log₂P⌉ rounds, P-1 messages). Collective.
func Bcast(c Comm, root int, data []byte) []byte {
	CheckRank(c, root)
	out, _ := bcastD(c, nil, root, data)
	return out
}

// BcastArrived reports whether root's next broadcast frame is waiting for
// c, so that Bcast(c, root, nil) would not block on a receive: a
// non-consuming Probe of c's parent in the binomial tree, in the round that
// parent sends in. At the root, which receives nothing, it reports true.
func BcastArrived(c Comm, root int) bool {
	CheckRank(c, root)
	parent, round, ok := bcastParent(c, root)
	return !ok || c.Probe(parent, bcastTag(round))
}

// bcastParent names the rank c receives root's broadcast from — the node
// whose relative rank clears c's lowest set bit — and the round, numbered
// by that bit, in which it arrives. ok is false at the root.
func bcastParent(c Comm, root int) (parent, round int, ok bool) {
	size := c.Size()
	rel := (c.Rank() - root + size) % size
	if rel == 0 {
		return 0, 0, false
	}
	round = bits.TrailingZeros(uint(rel))
	return (rel - 1<<round + root) % size, round, true
}

// bcastD is the body Bcast and BcastDeadline share; with a nil deadline
// context every receive is the plain blocking Recv, with one it is the
// abort-aware recvD.
func bcastD(c Comm, d *dctx, root int, data []byte) ([]byte, error) {
	size := c.Size()
	rtsBcasts.Inc()
	if c.Rank() == root {
		observeBytes(rtsBcastBytes, len(data))
	}
	if size == 1 {
		return data, nil
	}
	rtsRounds.Add(treeRounds(size))
	// A thread forwards in the rounds below the one it received in; the
	// root in every round.
	top := int(treeRounds(size))
	if parent, round, ok := bcastParent(c, root); ok {
		m, err := recvD(c, d, parent, bcastTag(round))
		if err != nil {
			return nil, err
		}
		data, top = m.Data, round
	}
	// Forward to the children, widest subtree first (the mirror of the
	// receive schedule, so sender and receiver agree on the round tag).
	rel := (c.Rank() - root + size) % size
	for round := top - 1; round >= 0; round-- {
		if child := rel + 1<<round; child < size {
			c.Send((child+root)%size, bcastTag(round), data)
		}
	}
	return data, nil
}

// Gather collects each thread's data at root along a binomial tree: every
// node ships its whole subtree's blocks to its parent as one framed
// message, so depth is ⌈log₂P⌉ instead of the P-1 serial receives of a
// flat gather. Root receives a slice indexed by rank, others receive nil.
// Collective.
func Gather(c Comm, root int, data []byte) [][]byte {
	CheckRank(c, root)
	size := c.Size()
	rtsGathers.Inc()
	observeBytes(rtsGatherBytes, len(data))
	if size == 1 {
		return [][]byte{data}
	}
	rtsRounds.Add(treeRounds(size))
	rel := (c.Rank() - root + size) % size
	// acc[i] is the block of relative rank rel+i: a binomial subtree covers
	// a contiguous relative-rank range, so position is implicit in order.
	acc := make([][]byte, 1, 8)
	acc[0] = data
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			// Ship the accumulated subtree to the parent as one frame.
			n := 4
			for _, b := range acc {
				n += 8 + len(b)
			}
			e := cdr.NewEncoder(n)
			e.PutSeqLen(len(acc))
			for _, b := range acc {
				e.PutOctets(b)
			}
			c.Send((rel-mask+root)%size, gatherTag(round), e.Bytes())
			return nil
		}
		if rel+mask < size {
			src := (rel + mask + root) % size
			dec := cdr.NewDecoder(c.Recv(src, gatherTag(round)).Data)
			n := dec.GetSeqLen(1)
			for i := 0; i < n; i++ {
				acc = append(acc, dec.GetOctets())
			}
			if err := dec.Err(); err != nil {
				panic(fmt.Sprintf("rts: corrupt gather frame from rank %d: %v", src, err))
			}
		}
		round++
	}
	// Root: acc is indexed by relative rank; rotate into absolute ranks.
	out := make([][]byte, size)
	for i, b := range acc {
		out[(root+i)%size] = b
	}
	return out
}

// AllGather gives every thread the slice of all threads' data via the
// Bruck dissemination algorithm: ⌈log₂P⌉ pairwise exchange rounds, each
// shipping the blocks accumulated so far (tagged with their owner rank, so
// unequal block sizes and non-power-of-two P need no special casing).
// Collective.
func AllGather(c Comm, data []byte) [][]byte {
	size := c.Size()
	rtsAllGathers.Inc()
	observeBytes(rtsAllGatherBytes, len(data))
	if size == 1 {
		return [][]byte{data}
	}
	rank := c.Rank()
	rtsRounds.Add(treeRounds(size))
	out := make([][]byte, size)
	out[rank] = data
	round := 0
	for cnt := 1; cnt < size; round++ {
		// I hold blocks of ranks rank..rank+cnt-1 (mod size); send the
		// first m of them back by cnt positions, receive the next m from
		// cnt positions ahead.
		m := cnt
		if size-cnt < m {
			m = size - cnt
		}
		frame := 4
		for j := 0; j < m; j++ {
			frame += 12 + len(out[(rank+j)%size])
		}
		e := cdr.NewEncoder(frame)
		e.PutSeqLen(m)
		for j := 0; j < m; j++ {
			r := (rank + j) % size
			e.PutLong(int32(r))
			e.PutOctets(out[r])
		}
		c.Send((rank-cnt+size)%size, allGatherTag(round), e.Bytes())
		src := (rank + cnt) % size
		dec := cdr.NewDecoder(c.Recv(src, allGatherTag(round)).Data)
		n := dec.GetSeqLen(1)
		for j := 0; j < n; j++ {
			r := int(dec.GetLong())
			b := dec.GetOctets()
			if dec.Err() != nil || r < 0 || r >= size {
				panic(fmt.Sprintf("rts: corrupt allgather frame from rank %d: %v", src, dec.Err()))
			}
			out[r] = b
		}
		cnt += m
	}
	return out
}

// AllGatherRing is the bandwidth-optimal all-gather for large payloads:
// P-1 rounds around a ring, each rank forwarding one raw block to its
// successor, so no block is ever re-framed and per-rank traffic is exactly
// the result size. Latency grows with P — prefer AllGather (log-depth
// Bruck) unless blocks are large. Collective.
func AllGatherRing(c Comm, data []byte) [][]byte {
	rtsAllGatherRing.Inc()
	size, rank := c.Size(), c.Rank()
	if size == 1 {
		return [][]byte{data}
	}
	rtsRounds.Add(uint64(size - 1))
	out := make([][]byte, size)
	out[rank] = data
	next, prev := (rank+1)%size, (rank-1+size)%size
	// Round k forwards the block received in round k-1, so each rank's
	// sends to its successor are chained: one tag carries the whole ring
	// without reordering risk.
	for k := 0; k < size-1; k++ {
		c.Send(next, tagRing, out[(rank-k+size)%size])
		out[(rank-k-1+size)%size] = c.Recv(prev, tagRing).Data
	}
	return out
}

// ReduceOp combines two collective payloads: acc is the local accumulator,
// which the op may modify in place and return (or replace with a fresh
// slice); in is a peer's contribution, which must be treated as read-only
// and not retained after the call (it may alias a transport frame). The
// operation must be associative and commutative — the tree combines
// contributions in subtree order, not rank order.
type ReduceOp func(acc, in []byte) []byte

// Reduce folds every thread's data with op along a binomial tree (the
// mirror of Bcast: ⌈log₂P⌉ rounds, P-1 messages); root receives the fold,
// others receive nil. Collective.
func Reduce(c Comm, root int, data []byte, op ReduceOp) []byte {
	CheckRank(c, root)
	out, _ := reduceD(c, nil, root, data, op)
	return out
}

func reduceD(c Comm, d *dctx, root int, data []byte, op ReduceOp) ([]byte, error) {
	size := c.Size()
	rtsReduces.Inc()
	observeBytes(rtsReduceBytes, len(data))
	if size == 1 {
		return data, nil
	}
	rtsRounds.Add(treeRounds(size))
	rel := (c.Rank() - root + size) % size
	acc := data
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			c.Send((rel-mask+root)%size, reduceTag(round), acc)
			return nil, nil
		}
		if rel+mask < size {
			m, err := recvD(c, d, (rel+mask+root)%size, reduceTag(round))
			if err != nil {
				return nil, err
			}
			acc = op(acc, m.Data)
		}
		round++
	}
	return acc, nil
}

// AllReduce folds every thread's data with op and delivers the result to
// all threads (tree reduce to rank 0, then tree broadcast: 2⌈log₂P⌉
// rounds). Collective.
func AllReduce(c Comm, data []byte, op ReduceOp) []byte {
	out, _ := allReduceD(c, nil, data, op)
	return out
}

func allReduceD(c Comm, d *dctx, data []byte, op ReduceOp) ([]byte, error) {
	rtsAllReduces.Inc()
	acc, err := reduceD(c, d, 0, data, op)
	if err != nil {
		return nil, err
	}
	return bcastD(c, d, 0, acc)
}

// runBarrier is the barrier every backend's Barrier method delegates to.
// The algorithm is dissemination: in round k each rank signals the
// peer 2^k ahead and waits for the peer 2^k behind, so after ⌈log₂P⌉
// rounds every rank has transitively heard from every other. Layering it
// on Send/Recv keeps the real-time and simulated semantics identical and
// gives the simulated fabric log-depth modeled latency for free.
func runBarrier(c Comm) {
	_ = barrierD(c, nil)
}

func barrierD(c Comm, d *dctx) error {
	rtsBarriers.Inc()
	size, rank := c.Size(), c.Rank()
	if size == 1 {
		return nil
	}
	rtsRounds.Add(treeRounds(size))
	round := 0
	for dist := 1; dist < size; dist <<= 1 {
		c.Send((rank+dist)%size, barrierTag(round), nil)
		if _, err := recvD(c, d, (rank-dist+size)%size, barrierTag(round)); err != nil {
			return err
		}
		round++
	}
	return nil
}
