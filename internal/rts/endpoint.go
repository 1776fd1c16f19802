package rts

import (
	"encoding/binary"
	"fmt"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/nexus"
	"pardis/internal/vtime"
)

// epThread is the real-time Thread: one computing thread of a parallel
// program, talking to its siblings through its own nexus.Endpoint. ChanGroup
// gives it an Inproc endpoint, JoinTCP a TCP one; everything else — the rank
// table, the frame format, (source, tag) matching — is this one type.
type epThread struct {
	host  string
	rank  int
	size  int
	ep    nexus.Endpoint
	table []nexus.Addr // rank -> endpoint address

	box mailbox // received but not yet matched; owner-only, like Recv
	// w is the thread's clock and timed wait, watching ep and the routers
	// of its ORB and POA. stashed counts messages put in box; waited is its
	// value at the last WaitUntil.
	w               *nexus.Waiter
	stashed, waited uint64
}

// newEPThread returns the thread of rank over ep, on the process's clock.
func newEPThread(host string, rank, size int, ep nexus.Endpoint, table []nexus.Addr) epThread {
	t := epThread{host: host, rank: rank, size: size, ep: ep, table: table, w: nexus.NewWaiter()}
	t.w.Watch(ep)
	return t
}

// msgData marks an rts data frame: a frame of any other protocol that
// reaches the endpoint is dropped.
const msgData byte = 3

// frameHdr is the size of a data frame's header: the frame type, three zero
// pad bytes, then the sender's rank, the tag and the payload length, each a
// big-endian 32-bit word — the CDR encoding of octet, long, ulong and an
// octet sequence's length prefix. The payload follows.
const frameHdr = 16

// decodeFrame parses a data frame from a program of size ranks. It accepts
// only what Send produces — a known rank, zero padding, a length prefix equal
// to the bytes that follow — so an accepted frame re-encodes byte for byte.
// Data aliases frame.
func decodeFrame(frame []byte, size int) (Message, bool) {
	if len(frame) < frameHdr || frame[0] != msgData || frame[1]|frame[2]|frame[3] != 0 {
		return Message{}, false
	}
	src := int32(binary.BigEndian.Uint32(frame[4:]))
	n := binary.BigEndian.Uint32(frame[12:])
	if src < 0 || int(src) >= size || uint64(n) != uint64(len(frame)-frameHdr) {
		return Message{}, false
	}
	return Message{Src: int(src), Tag: Tag(binary.BigEndian.Uint32(frame[8:])), Data: frame[frameHdr:]}, true
}

// stash queues a data frame that arrived before it was wanted; anything
// else is dropped. The queued Message's Data aliases the frame, which the
// transport handed over for good: it is never released back to the frame
// pool, so received data stays the receiver's indefinitely.
func (t *epThread) stash(frame []byte) {
	if m, ok := decodeFrame(frame, t.size); ok {
		t.box.q = append(t.box.q, m)
		t.stashed++
	}
}

// drain moves every frame the endpoint holds into the mailbox. With queued
// it takes only what has been delivered (nexus.PollQueued): the owner is
// about to park on its wait, whose read of an in-place connection is then
// the one look at the socket (DESIGN.md §12).
func (t *epThread) drain(queued bool) {
	for {
		fr, ok, err := t.poll(queued)
		if err != nil || !ok {
			return
		}
		t.stash(fr.Data)
	}
}

func (t *epThread) poll(queued bool) (nexus.Frame, bool, error) {
	if queued {
		return nexus.PollQueued(t.ep)
	}
	return t.ep.Poll()
}

// Rank implements Comm.
func (t *epThread) Rank() int { return t.rank }

// Size implements Comm.
func (t *epThread) Size() int { return t.size }

// HostName implements Thread.
func (t *epThread) HostName() string { return t.host }

// Compute implements Thread (no-op: real work happens for real).
func (t *epThread) Compute(float64) {}

// Sleep implements Thread.
func (t *epThread) Sleep(seconds float64) {
	time.Sleep(vtime.Wall(seconds))
}

// Elapsed implements Thread.
func (t *epThread) Elapsed() float64 { return t.w.Elapsed() }
func (t *epThread) ElapsedNS() int64 { return t.w.ElapsedNS() }

// WaitUntil implements Thread. The endpoint signals a frame only as it
// lands in an empty inbox, and a receive can leave frames behind — in the
// inbox behind the one it took, or in the mailbox, passed over on the way
// to another — for which no wake-up will come. So a message that reached
// the mailbox since the previous wait ends this one at once. On a TCP
// endpoint that reads its connection in place (a 2-rank JoinTCP program)
// the wait is the read of that connection, so the drain before it takes
// only what has been delivered; no goroutine hands the frames over.
func (t *epThread) WaitUntil(at float64) {
	t.drain(true)
	if t.stashed != t.waited {
		t.waited = t.stashed
		return
	}
	t.w.WaitUntil(at)
}

// Watch implements Thread.
func (t *epThread) Watch(ep nexus.Endpoint) bool { return t.w.Watch(ep) }

// Send implements Comm. A small pooled header and the caller's payload go
// out as one vectored send, which copies them into the frame before it
// returns.
func (t *epThread) Send(dst int, tag Tag, data []byte) {
	CheckRank(t, dst)
	if err := t.send(t.table[dst], tag, data); err != nil {
		// The RTS contract has no error path for sends (matching MPI's
		// reliable-delivery model); a dead peer is fatal to the program.
		panic(fmt.Sprintf("rts: send to rank %d: %v", dst, err))
	}
}

// send writes one data frame to the endpoint at to.
func (t *epThread) send(to nexus.Addr, tag Tag, data []byte) error {
	e := cdr.GetEncoder(frameHdr)
	e.PutOctet(msgData)
	e.PutLong(int32(t.rank))
	e.PutULong(uint32(tag))
	e.PutSeqLen(len(data)) // header ends with the octet sequence's length prefix
	err := t.ep.SendV(to, e.Bytes(), data)
	e.Release()
	return err
}

// Recv implements Comm.
func (t *epThread) Recv(src int, tag Tag) Message {
	for {
		if m, ok := t.box.take(src, tag); ok {
			return m
		}
		fr, err := t.ep.Recv()
		if err != nil {
			panic(fmt.Sprintf("rts: recv: %v", err))
		}
		t.stash(fr.Data)
	}
}

// Probe implements Comm. It reads the connection: a caller that probes
// and never waits relies on that.
func (t *epThread) Probe(src int, tag Tag) bool {
	t.drain(false)
	return t.box.has(src, tag)
}

// probeQueued is Probe for a caller about to park on the thread's wait
// (probeQueued in deadline.go).
func (t *epThread) probeQueued(src int, tag Tag) bool {
	t.drain(true)
	return t.box.has(src, tag)
}

// Barrier implements Comm (dissemination over Send/Recv, shared with the
// sim backend).
func (t *epThread) Barrier() { runBarrier(t) }

func match(m Message, src int, tag Tag) bool {
	return m.Tag == tag && (src == AnySource || m.Src == src)
}

// mailbox holds the messages waiting for one thread, oldest first, live from
// head on. Receiving costs no allocation and no copy of the backlog when the
// match is the oldest message — the common case, and the one a thread behind
// on its agreement phases is in.
type mailbox struct {
	q    []Message
	head int
}

// take removes and returns the oldest message matching (src, tag).
func (b *mailbox) take(src int, tag Tag) (Message, bool) {
	for i := b.head; i < len(b.q); i++ {
		m := b.q[i]
		if !match(m, src, tag) {
			continue
		}
		if i == b.head {
			b.q[i] = Message{} // drop the payload reference promptly
			b.head++
		} else {
			copy(b.q[i:], b.q[i+1:])
			b.q[len(b.q)-1] = Message{}
			b.q = b.q[:len(b.q)-1]
		}
		switch {
		case b.head == len(b.q):
			b.q, b.head = b.q[:0], 0 // rewind: the array is reused
		case b.head >= 64 && 2*b.head >= len(b.q):
			// A mailbox that never quite empties would otherwise grow by
			// its dead prefix for ever; moving the live half down costs
			// O(1) per message received.
			n := copy(b.q, b.q[b.head:])
			clear(b.q[n:])
			b.q, b.head = b.q[:n], 0
		}
		return m, true
	}
	return Message{}, false
}

// has reports whether a message matching (src, tag) is waiting.
func (b *mailbox) has(src int, tag Tag) bool {
	for _, m := range b.q[b.head:] {
		if match(m, src, tag) {
			return true
		}
	}
	return false
}
