package rts

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pardis/internal/nexus"
)

// TestMailboxRecvIsFIFOAndAllocFree pins the mailbox a thread behind on its
// phases depends on, over both fabrics: with 1000 messages queued, a
// matching Recv — of the oldest message or of one in the middle — allocates
// nothing (both former mailboxes at one time copied the whole backlog), and
// under a seeded interleaving of sources, tags and receive order every
// (source, tag) stream still comes out in send order.
func TestMailboxRecvIsFIFOAndAllocFree(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		g := NewChanGroup("mailbox-host", 4)
		checkMailbox(t, []Thread{g.Thread(0), g.Thread(1), g.Thread(2), g.Thread(3)})
	})
	t.Run("tcp", func(t *testing.T) {
		// A fixed localhost port outside the ephemeral range, as in
		// tcpcomm_test.go.
		checkMailbox(t, joinTCPGroup(t, 4, "127.0.0.1:29771"))
	})
}

// joinTCPGroup bootstraps an n-rank TCP program inside this process and
// closes it when the test ends.
func joinTCPGroup(t *testing.T, n int, coord string) []Thread {
	t.Helper()
	threads := make([]*TCPThread, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			threads[rank], errs[rank] = JoinTCP("mailbox-host", rank, n, coord, 10*time.Second)
		}(r)
	}
	wg.Wait()
	out := make([]Thread, n)
	for r, th := range threads {
		if th != nil {
			t.Cleanup(func() { th.Close() })
		}
		out[r] = th
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

// checkMailbox drives the last thread's mailbox from the others through
// Send and Recv alone.
func checkMailbox(t *testing.T, th []Thread) {
	const tags, backlog = 4, 1000
	ranks := len(th) - 1
	dst := th[ranks]
	rng := rand.New(rand.NewSource(22))
	sent := map[[2]int]uint32{} // (src, tag) -> next sequence number to send
	want := map[[2]int]uint32{} // (src, tag) -> next sequence number to receive
	pending := 0
	send := func(src, tag int) {
		k := [2]int{src, tag}
		th[src].Send(ranks, Tag(tag), binary.BigEndian.AppendUint32(nil, sent[k]))
		sent[k]++
		pending++
	}
	recv := func(k [2]int) {
		m := dst.Recv(k[0], Tag(k[1]))
		if got := binary.BigEndian.Uint32(m.Data); m.Src != k[0] || int(m.Tag) != k[1] || got != want[k] {
			t.Fatalf("stream %v: got message %d from %d tag %d, want %d", k, got, m.Src, m.Tag, want[k])
		}
		want[k]++
		pending--
	}
	recvSome := func() {
		// Pick a stream with a message sent and not yet received.
		for {
			k := [2]int{rng.Intn(ranks), rng.Intn(tags)}
			if want[k] != sent[k] {
				recv(k)
				return
			}
		}
	}
	for i := 0; i < backlog; i++ {
		send(rng.Intn(ranks), rng.Intn(tags))
	}
	// Long enough for the dead prefix to be compacted and the queue rewound
	// many times over.
	for i := 0; i < 20*backlog; i++ {
		if rng.Intn(2) == 0 {
			send(rng.Intn(ranks), rng.Intn(tags))
		}
		if pending > 0 {
			recvSome()
		}
	}
	for pending > 0 {
		recvSome()
	}

	// A fresh backlog from one source, so its queue order is its send order
	// on either fabric: half tag 0, then half tag 1, then a fence on tag 2.
	// Receiving the fence has every earlier message waiting in the mailbox.
	for i := 0; i < backlog; i++ {
		send(0, i*2/backlog)
	}
	send(0, 2)
	recv([2]int{0, 2})
	bad := false
	check := func(tag int, m Message) {
		k := [2]int{0, tag}
		if m.Src != 0 || binary.BigEndian.Uint32(m.Data) != want[k] {
			bad = true
		}
		want[k]++
	}
	if a := testing.AllocsPerRun(100, func() { check(0, dst.Recv(AnySource, 0)) }); a != 0 {
		t.Errorf("Recv of the oldest message from any source: %v allocs with %d queued, want 0", a, backlog)
	}
	// The first tag-1 message sits behind the ~400 tag-0 messages left.
	if a := testing.AllocsPerRun(100, func() { check(1, dst.Recv(0, 1)) }); a != 0 {
		t.Errorf("Recv of a message from the middle: %v allocs, want 0", a)
	}
	if bad {
		t.Error("a measured Recv returned a message out of its stream's order")
	}
}

// TestMailboxCompacts: a mailbox that never empties keeps its backing array
// within a constant factor of its live messages.
func TestMailboxCompacts(t *testing.T) {
	const live = 1000
	var b mailbox
	for i := 0; i < 20*live; i++ {
		b.q = append(b.q, Message{Tag: Tag(i % 2)})
		if len(b.q)-b.head > live {
			if _, ok := b.take(AnySource, b.q[b.head].Tag); !ok {
				t.Fatal("the oldest message did not match itself")
			}
		}
	}
	if cap(b.q) > 8*live {
		t.Errorf("mailbox backing array grew to %d slots for %d live messages", cap(b.q), live)
	}
}

// FuzzRTSFrame feeds arbitrary bytes to the one rts decoder that faces the
// wire. It must never panic; a frame it accepts must be exactly what Send
// writes for that message.
func FuzzRTSFrame(f *testing.F) {
	const size = 3
	fab := nexus.NewInproc()
	sink := fab.NewEndpoint("sink")
	senders := make([]*epThread, size)
	for r := range senders {
		senders[r] = &epThread{rank: r, size: size, ep: fab.NewEndpoint("src"), table: []nexus.Addr{sink.Addr()}}
	}
	encode := func(m Message) []byte {
		senders[m.Src].Send(0, m.Tag, m.Data)
		fr, err := sink.Recv()
		if err != nil {
			panic(err)
		}
		return fr.Data
	}
	for _, m := range []Message{
		{Src: 0, Tag: 7, Data: nil},
		{Src: 2, Tag: TagPing, Data: []byte("payload")},
		{Src: 1, Tag: bcastTag(3), Data: bytes.Repeat([]byte{0xAB}, 300)},
	} {
		f.Add(encode(m))
	}
	f.Add(encode(Message{Src: 1, Tag: 9, Data: []byte{1, 2, 3}})[:frameHdr-3]) // truncated header

	// A length prefix claiming 4 GiB is refused without sizing anything by it.
	huge := encode(Message{Src: 1, Tag: 9})
	binary.BigEndian.PutUint32(huge[12:], 0xFFFF_FFFF)
	if a := testing.AllocsPerRun(10, func() {
		if _, ok := decodeFrame(huge, size); ok {
			f.Fatal("accepted a frame whose length prefix exceeds it")
		}
	}); a != 0 {
		f.Fatalf("decoding a frame allocated %v times", a)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		m, ok := decodeFrame(frame, size)
		if !ok {
			return
		}
		if again := encode(m); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame % x re-encodes as % x", frame, again)
		}
	})
}
