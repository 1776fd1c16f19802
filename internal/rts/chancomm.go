package rts

import (
	"sync"
	"time"
)

// ChanGroup is the real-time RTS backend: the computing threads of one
// parallel program are goroutines exchanging messages through in-process
// mailboxes. It plays the role MPI played in the paper's testbed.
type ChanGroup struct {
	size  int
	host  string
	start time.Time

	mu    sync.Mutex
	cond  *sync.Cond
	boxes []mailbox // one per destination rank

	winOnce sync.Once
	wins    *winStore
}

// NewChanGroup creates the communication state for a parallel program of n
// computing threads running on the named host.
func NewChanGroup(host string, n int) *ChanGroup {
	g := &ChanGroup{size: n, host: host, start: time.Now(), boxes: make([]mailbox, n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Thread returns the Thread context for the given rank.
func (g *ChanGroup) Thread(rank int) Thread {
	if rank < 0 || rank >= g.size {
		panic("rts: rank out of range")
	}
	return &chanThread{g: g, rank: rank}
}

// Run spawns body once per rank on its own goroutine and waits for all of
// them to finish — the shape of an SPMD program launch.
func (g *ChanGroup) Run(body func(t Thread)) {
	var wg sync.WaitGroup
	for r := 0; r < g.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(g.Thread(rank))
		}(r)
	}
	wg.Wait()
}

type chanThread struct {
	g    *ChanGroup
	rank int
}

func (t *chanThread) Rank() int        { return t.rank }
func (t *chanThread) Size() int        { return t.g.size }
func (t *chanThread) HostName() string { return t.g.host }

func (t *chanThread) Compute(refSeconds float64) {
	// Real-time backend: application code performs actual computation;
	// the modeled cost is only meaningful on the simulated backend.
}

func (t *chanThread) Elapsed() float64 { return time.Since(t.g.start).Seconds() }

func (t *chanThread) Sleep(seconds float64) {
	time.Sleep(time.Duration(seconds * float64(time.Second)))
}

func (t *chanThread) Send(dst int, tag Tag, data []byte) {
	CheckRank(t, dst)
	g := t.g
	g.mu.Lock()
	b := &g.boxes[dst]
	b.q = append(b.q, Message{Src: t.rank, Tag: tag, Data: data})
	g.mu.Unlock()
	g.cond.Broadcast()
}

func match(m Message, src int, tag Tag) bool {
	return m.Tag == tag && (src == AnySource || m.Src == src)
}

// mailbox holds the messages waiting for one rank, oldest first, live from
// head on. Guarded by the group's mu. Receiving costs no allocation and no
// copy of the backlog when the match is the oldest message — the common
// case, and the one a thread behind on its agreement phases is in.
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

func (t *chanThread) Recv(src int, tag Tag) Message {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if m, ok := g.boxes[t.rank].take(src, tag); ok {
			return m
		}
		g.cond.Wait()
	}
}

func (t *chanThread) Probe(src int, tag Tag) bool {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	b := &g.boxes[t.rank]
	for _, m := range b.q[b.head:] {
		if match(m, src, tag) {
			return true
		}
	}
	return false
}

// Barrier implements Comm (dissemination over Send/Recv, shared with the
// sim and TCP backends).
func (t *chanThread) Barrier() { runBarrier(t) }

// Window support: the group's shared store, free on an in-process backend.

func (g *ChanGroup) winStore() *winStore {
	g.winOnce.Do(func() { g.wins = newWinStore() })
	return g.wins
}

// WinAlloc collectively allocates a window id.
func (t *chanThread) WinAlloc() uint64 { return t.g.winStore().allocID(t) }

// WinPut publishes this thread's storage for a window.
func (t *chanThread) WinPut(id uint64, rank int, data any) { t.g.winStore().put(id, rank, data) }

// WinGet reads another thread's published storage.
func (t *chanThread) WinGet(id uint64, rank int, bytes int) any { return t.g.winStore().get(id, rank) }
