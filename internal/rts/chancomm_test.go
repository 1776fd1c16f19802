package rts

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestChanMailboxRecvIsFIFOAndAllocFree pins the mailbox a thread behind on
// its phases depends on: with 1000 messages queued, a matching Recv — of the
// oldest message or of one in the middle — allocates nothing (it used to copy
// the whole backlog), and under a seeded interleaving of sources, tags and
// receive order every (source, tag) stream still comes out in send order.
func TestChanMailboxRecvIsFIFOAndAllocFree(t *testing.T) {
	const ranks, tags, backlog = 3, 4, 1000
	g := NewChanGroup("mailbox-host", ranks+1)
	dst := g.Thread(ranks)
	rng := rand.New(rand.NewSource(22))
	sent := map[[2]int]uint32{} // (src, tag) -> next sequence number to send
	want := map[[2]int]uint32{} // (src, tag) -> next sequence number to receive
	send := func() {
		src, tag := rng.Intn(ranks), rng.Intn(tags)
		k := [2]int{src, tag}
		g.Thread(src).Send(ranks, Tag(tag), binary.BigEndian.AppendUint32(nil, sent[k]))
		sent[k]++
	}
	recv := func() {
		// Pick a stream that has something pending, so Recv never blocks.
		for {
			k := [2]int{rng.Intn(ranks), rng.Intn(tags)}
			if want[k] == sent[k] {
				continue
			}
			m := dst.Recv(k[0], Tag(k[1]))
			if got := binary.BigEndian.Uint32(m.Data); m.Src != k[0] || int(m.Tag) != k[1] || got != want[k] {
				t.Fatalf("stream %v: got message %d from %d tag %d, want %d", k, got, m.Src, m.Tag, want[k])
			}
			want[k]++
			return
		}
	}
	for i := 0; i < backlog; i++ {
		send()
	}
	// Long enough for the dead prefix to be compacted and the queue rewound
	// many times over.
	for i := 0; i < 20*backlog; i++ {
		if rng.Intn(2) == 0 {
			send()
		}
		if g.boxes[ranks].head < len(g.boxes[ranks].q) {
			recv()
		}
	}
	for len(g.boxes[ranks].q) < backlog {
		send()
	}
	first := g.boxes[ranks].q[g.boxes[ranks].head]
	if a := testing.AllocsPerRun(100, func() { dst.Recv(AnySource, first.Tag) }); a != 0 {
		t.Errorf("Recv of a queued message from any source: %v allocs with %d queued, want 0", a, backlog)
	}
	if a := testing.AllocsPerRun(100, func() {
		b := &g.boxes[ranks]
		mid := b.q[(b.head+len(b.q))/2]
		dst.Recv(mid.Src, mid.Tag)
	}); a != 0 {
		t.Errorf("Recv of a message from the middle: %v allocs, want 0", a)
	}
	if b := &g.boxes[ranks]; cap(b.q) > 8*backlog {
		t.Errorf("mailbox backing array grew to %d slots for at most ~%d live messages", cap(b.q), 2*backlog)
	}
}
