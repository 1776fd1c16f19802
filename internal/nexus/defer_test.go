package nexus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/obs/leaktest"
)

// The tests below pin the five rules of the deferred-flush policy (DESIGN.md
// §12). They synchronise on events — an arrival notification, a bounded
// receive, a bounded poll of connection state — never on a sleep that
// assumes something has happened by then.

const deferTestBound = 10 * time.Second

// testWaiters keeps the one Waiter of each endpoint a test receives from
// through recvWithin: an endpoint takes one registration.
var testWaiters sync.Map

// waiterOf returns ep's test Waiter, made on first use.
func waiterOf(ep Endpoint) *Waiter {
	if v, ok := testWaiters.Load(ep); ok {
		return v.(*Waiter)
	}
	w := NewWaiter()
	w.Watch(ep)
	testWaiters.Store(ep, w)
	return w
}

// recvWithin receives one frame from ep, waiting at most d.
func recvWithin(ep Endpoint, d time.Duration) (Frame, error) {
	w := waiterOf(ep)
	return recvBy(w, ep, w.Elapsed()+d.Seconds())
}

// errRecvTimeout is recvBy's report that its deadline passed.
var errRecvTimeout = errors.New("receive deadline exceeded")

// recvBy receives one frame from ep, which w watches, parked on w between
// polls, or fails with errRecvTimeout once w's clock reads at.
func recvBy(w *Waiter, ep Endpoint, at float64) (Frame, error) {
	for ; ; w.WaitUntil(at) {
		if fr, ok, err := ep.Poll(); err != nil || ok {
			return fr, err
		}
		if w.Elapsed() >= at {
			return Frame{}, errRecvTimeout
		}
	}
}

// deferPair is two transports with one channel each and the connection
// between them up in both tables, so hello writes and dials are behind any
// counter baseline a test takes.
type deferPair struct {
	ta, tb *TCPTransport
	a, b   *tcpChan
}

func newDeferPair(t *testing.T) *deferPair {
	t.Helper()
	ta, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ta.Close() })
	tb, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	p := &deferPair{ta: ta, tb: tb, a: ta.newChan(false), b: tb.newChan(false)}
	for _, hop := range [][2]*tcpChan{{p.a, p.b}, {p.b, p.a}} {
		if err := hop[0].Send(hop[1].Addr(), []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if _, err := recvWithin(hop[1], deferTestBound); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// testConn returns t's connection to peer's transport.
func (t *TCPTransport) testConn(peer *TCPTransport) *tcpConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[peer.hostport]
}

// hasFlusher reports whether the connection ever started its flusher.
func (tc *tcpConn) hasFlusher() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.kick != nil
}

// inboxFiller makes a channel's inbox non-empty — observation (a) — by
// sending it a frame from the peer and parking on the channel's waiter until
// the frame is there.
type inboxFiller struct {
	src Endpoint
	dst *tcpChan
}

func newInboxFiller(src Endpoint, dst *tcpChan) *inboxFiller {
	return &inboxFiller{src: src, dst: dst}
}

// fill returns once a frame sits in dst's inbox.
func (f *inboxFiller) fill() error {
	if err := f.src.Send(f.dst.Addr(), []byte("fill")); err != nil {
		return err
	}
	w := waiterOf(f.dst)
	for at := w.Elapsed() + deferTestBound.Seconds(); ; w.WaitUntil(at) {
		if _, waiting := f.dst.state(); waiting {
			return nil
		}
		if w.Elapsed() >= at {
			return errors.New("filler frame never arrived")
		}
	}
}

// flushersLive counts flusher goroutines in the process.
func flushersLive() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "(*tcpConn).flushLoop")
}

// waitUntil polls cond (bounded) until it holds: the tests' way of waiting
// for a state no event announces.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(deferTestBound); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitFlushers waits for exactly want flusher goroutines — the precise
// companion of leaktest.Check, whose slack would let one through.
func waitFlushers(t *testing.T, want int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d live flusher goroutines", want), func() bool { return flushersLive() == want })
}

// failure returns the connection's sticky error.
func (tc *tcpConn) failure() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.err
}

func seqFrame(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }

// recvSeq receives frames on ep until n consecutive sequence numbers from
// first have arrived, in order.
func recvSeq(t *testing.T, ep Endpoint, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		fr, err := recvWithin(ep, deferTestBound)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := int(binary.BigEndian.Uint32(fr.Data)); got != i {
			t.Fatalf("frame %d arrived where %d was expected", got, i)
		}
	}
}

// TestDeferredFrameNeedsNoSecondCall is the bound (rule: no deferred frame
// depends on anyone calling the transport again): a sender whose inbox is
// busy sends once and never touches its endpoint again; the frame arrives.
func TestDeferredFrameNeedsNoSecondCall(t *testing.T) {
	p := newDeferPair(t)
	if err := newInboxFiller(p.b, p.a).fill(); err != nil {
		t.Fatal(err)
	}
	before := tcpDeferredFrames.Load()
	if err := p.a.Send(p.b.Addr(), []byte("deferred")); err != nil {
		t.Fatal(err)
	}
	// From here on only the flusher can deliver it.
	fr, err := recvWithin(p.b, deferTestBound)
	if err != nil {
		t.Fatalf("deferred frame not delivered: %v", err)
	}
	if string(fr.Data) != "deferred" || fr.From != p.a.Addr() {
		t.Fatalf("got %q from %s", fr.Data, fr.From)
	}
	if got := tcpDeferredFrames.Load() - before; got != 1 {
		t.Fatalf("nexus_tcp_deferred_frames_total moved by %d, want 1", got)
	}
}

// TestDeferCountersPinned pins what the combiner's counters count, on a
// bare connection over a pipe (a write blocks until the peer reads, so who
// flushes what is decided by the test, not the scheduler): one lone frame
// written by its sender, then three deferred frames that leave as one batch
// behind it.
func TestDeferCountersPinned(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	tc := newTCPConn(nil, c1, "counter-test")
	defer tc.fail(net.ErrClosed)
	// A flush is counted after its write returns: let earlier tests'
	// flushers finish before taking the baseline.
	waitFlushers(t, 0)
	flushes, deferred := tcpFlushes.Load(), tcpDeferredFrames.Load()
	coFlushes, coFrames := tcpCoalescedFlushes.Load(), tcpCoalescedFrames.Load()

	// The lone frame's sender takes the writer role and parks in the pipe.
	sent := make(chan error, 1)
	go func() { sent <- tc.sendFrame(1, 2, [][]byte{seqFrame(0)}, false) }()
	waitUntil(t, "the first sender to take the writer role", func() bool {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return tc.writing
	})
	// Deferred frames return at once, writer active or not.
	for i := 1; i <= 3; i++ {
		if err := tc.sendFrame(1, 2, [][]byte{seqFrame(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	rd := newFrameReader(c2)
	for i := 0; i <= 3; i++ {
		data, _, err := rd.next(maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(binary.BigEndian.Uint32(data[muxHdrLen:])); got != i {
			t.Fatalf("frame %d arrived where %d was expected", got, i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"nexus_tcp_flushes_total", tcpFlushes.Load() - flushes, 2},
		{"nexus_tcp_deferred_frames_total", tcpDeferredFrames.Load() - deferred, 3},
		{"nexus_tcp_coalesced_flushes_total", tcpCoalescedFlushes.Load() - coFlushes, 1},
		{"nexus_tcp_coalesced_frames_total", tcpCoalescedFrames.Load() - coFrames, 3},
	} {
		if c.got != c.want {
			t.Errorf("%s moved by %d, want %d", c.name, c.got, c.want)
		}
	}
	if tc.hasFlusher() {
		t.Error("flusher started although a writer was active at every deferral")
	}
}

// TestDeferLoneFrameWrittenBySender is the restated no-added-latency rule:
// in a depth-1 ping-pong no frame meets either observation, so every frame
// is written by its own sender — one socket write per frame, none deferred,
// no flusher ever started.
func TestDeferLoneFrameWrittenBySender(t *testing.T) {
	p := newDeferPair(t)
	const rounds = 500
	waitFlushers(t, 0) // as in TestDeferCountersPinned
	flushes, deferred := tcpFlushes.Load(), tcpDeferredFrames.Load()
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			fr, err := p.b.Recv()
			if err == nil {
				err = p.b.Send(fr.From, fr.Data)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	for i := 0; i < rounds; i++ {
		if err := p.a.Send(p.b.Addr(), seqFrame(i)); err != nil {
			t.Fatal(err)
		}
		recvSeq(t, p.a, i, 1)
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	if got := tcpDeferredFrames.Load() - deferred; got != 0 {
		t.Errorf("%d frames deferred in a depth-1 ping-pong, want 0", got)
	}
	if got := tcpFlushes.Load() - flushes; got != 2*rounds {
		t.Errorf("%d socket writes for %d frames, want one each", got, 2*rounds)
	}
	if p.ta.testConn(p.tb).hasFlusher() || p.tb.testConn(p.ta).hasFlusher() {
		t.Error("a connection that never deferred started its flusher")
	}
}

// orderFrame is a frame of the order property: its sequence number, its own
// length, and a body derived from the sequence number.
func orderFrame(seq, size int) []byte {
	b := bytes.Repeat([]byte{byte(seq)}, size)
	binary.BigEndian.PutUint32(b[0:4], uint32(seq))
	binary.BigEndian.PutUint32(b[4:8], uint32(size))
	return b
}

// orderSizes draws n payload sizes that straddle TCPCoalesceLimit: tiny,
// just under and just over the limit's payload, anywhere below, well above.
func orderSizes(rng *rand.Rand, n int) []int {
	edge := TCPCoalesceLimit - 4 - muxHdrLen // largest payload on the small path
	sizes := make([]int, n)
	for i := range sizes {
		switch rng.Intn(5) {
		case 0:
			sizes[i] = 8 + rng.Intn(56)
		case 1:
			sizes[i] = edge - rng.Intn(8)
		case 2:
			sizes[i] = edge + 1 + rng.Intn(8)
		case 3:
			sizes[i] = 8 + rng.Intn(edge-8)
		case 4:
			sizes[i] = edge + rng.Intn(2*TCPCoalesceLimit)
		}
	}
	return sizes
}

// TestDeferOrderProperty: frames of one channel leave in send order across
// inline, deferred and large sends. One channel sends a seeded random
// sequence of sizes straddling the coalescing limit while its inbox is
// randomly empty or not; a sibling on the same transport interleaves its own
// sequence; the receiver must see each channel's exact sequence.
func TestDeferOrderProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { deferOrderRun(t, seed) })
	}
}

func deferOrderRun(t *testing.T, seed int64) {
	const n = 300
	p := newDeferPair(t)
	a2 := p.ta.newChan(false)
	filler := newInboxFiller(p.tb.newChan(false), p.a)
	sizes := map[Addr][]int{
		p.a.Addr(): orderSizes(rand.New(rand.NewSource(seed)), n),
		a2.Addr():  orderSizes(rand.New(rand.NewSource(seed+1000)), n),
	}
	deferred := tcpDeferredFrames.Load()

	done := make(chan error, 2)
	go func() { // the channel whose inbox comes and goes
		rng := rand.New(rand.NewSource(seed + 2000))
		full := false
		for i, size := range sizes[p.a.Addr()] {
			switch rng.Intn(3) {
			case 0:
				if !full {
					if err := filler.fill(); err != nil {
						done <- err
						return
					}
					full = true
				}
			case 1:
				drain(p.a)
				full = false
			}
			if err := p.a.Send(p.b.Addr(), orderFrame(i, size)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() { // the interleaving sibling
		for i, size := range sizes[a2.Addr()] {
			if err := a2.Send(p.b.Addr(), orderFrame(i, size)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	next := map[Addr]int{}
	for got := 0; got < 2*n; got++ {
		fr, err := recvWithin(p.b, deferTestBound)
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		want, ok := sizes[fr.From]
		if !ok {
			t.Fatalf("frame from unexpected sender %s", fr.From)
		}
		seq := next[fr.From]
		if seq >= n || !bytes.Equal(fr.Data, orderFrame(seq, want[seq])) {
			t.Fatalf("%s: frame %d (%d bytes) is not the %d-byte frame %d its sender sent next",
				fr.From, binary.BigEndian.Uint32(fr.Data), len(fr.Data), want[seq], seq)
		}
		next[fr.From]++
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tcpDeferredFrames.Load() == deferred {
		t.Error("no frame was deferred: the property was not exercised")
	}
}

// failAfterWrite is a connection whose peer "closes the moment it has read
// our frame": each successful Write is followed, before it returns, by the
// hook — standing in for the reader goroutine seeing that EOF.
type failAfterWrite struct {
	net.Conn
	hook func()
}

func (c *failAfterWrite) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil {
		c.hook()
	}
	return n, err
}

// TestDeferCompletedSendSurvivesFailure is the sender's half of rule 3: a
// send whose bytes reached the socket has succeeded, even if the connection
// is failed (by the reader, here) before the sender is back under the lock.
// An rts rank that sends its last message to a peer which then leaves must
// not see that departure as a failed send (TestTCPGroupProbe, under -race).
func TestDeferCompletedSendSurvivesFailure(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go io.Copy(io.Discard, c2) //nolint:errcheck // drained until pipe closes
	var tc *tcpConn
	tc = newTCPConn(nil, &failAfterWrite{Conn: c1, hook: func() { tc.fail(io.EOF) }}, "survive-test")
	if err := tc.sendFrame(1, 2, [][]byte{seqFrame(0)}, false); err != nil {
		t.Fatalf("send whose write succeeded reported %v", err)
	}
	if err := tc.sendFrame(1, 2, [][]byte{seqFrame(1)}, false); err != io.EOF {
		t.Fatalf("send on the failed connection reported %v, want the sticky io.EOF", err)
	}
}

// TestDeferBoundedByPendCap is rule 4: deferred bytes never exceed
// tcpPendCap, because at the cap the appender writes the batch itself. The
// connection's flusher is replaced by a kick channel nobody reads — a
// flusher that never gets a processor — so deferred frames can only leave by
// that take-over.
func TestDeferBoundedByPendCap(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	tc := newTCPConn(nil, c1, "bound-test")
	defer tc.fail(net.ErrClosed)
	tc.kick = make(chan struct{}, 1)

	const n = 100
	payload := make([]byte, 4000) // ~33 frames to the cap: three take-overs
	read := make(chan error, 1)
	go func() {
		rd := newFrameReader(c2)
		for i := 0; i < n; i++ {
			data, _, err := rd.next(maxFrame)
			if err == nil && int(binary.BigEndian.Uint32(data[muxHdrLen:])) != i {
				err = fmt.Errorf("frame %d arrived where %d was expected", binary.BigEndian.Uint32(data[muxHdrLen:]), i)
			}
			if err != nil {
				read <- err
				return
			}
		}
		read <- nil
	}()
	waitFlushers(t, 0) // as in TestDeferCountersPinned
	flushes, deferred := tcpFlushes.Load(), tcpDeferredFrames.Load()
	for i := 0; i < n; i++ {
		if err := tc.sendFrame(1, 2, [][]byte{seqFrame(i), payload}, true); err != nil {
			t.Fatal(err)
		}
		tc.mu.Lock()
		pending := len(tc.pend)
		tc.mu.Unlock()
		if pending >= tcpPendCap {
			t.Fatalf("after send %d: %d bytes pending, cap %d", i, pending, tcpPendCap)
		}
	}
	// The tail below the cap is the (absent) flusher's; Close's drain
	// stands in for it.
	tc.flushAndFail(net.ErrClosed)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	wire := 4 + muxHdrLen + 4 + len(payload)
	perBatch := (tcpPendCap + wire - 1) / wire // the frame that reaches the cap
	takeovers := n - int(tcpDeferredFrames.Load()-deferred)
	if want := n / perBatch; takeovers != want {
		t.Errorf("%d senders wrote the batch themselves, want %d (every %dth)", takeovers, want, perBatch)
	}
	if got := int(tcpFlushes.Load() - flushes); got != takeovers+1 {
		t.Errorf("%d socket writes, want %d take-overs and the final drain", got, takeovers)
	}
}

// TestCloseFlushesDeferredFrames is rule 1: what deferred sends accepted is
// written before Close closes the socket. Every send here is deferred (the
// sender's inbox stays busy) and Close follows at once.
func TestCloseFlushesDeferredFrames(t *testing.T) {
	p := newDeferPair(t)
	if err := newInboxFiller(p.b, p.a).fill(); err != nil {
		t.Fatal(err)
	}
	const n = 200
	deferred := tcpDeferredFrames.Load()
	for i := 0; i < n; i++ {
		if err := p.a.Send(p.b.Addr(), seqFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ta.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tcpDeferredFrames.Load() - deferred; got != n {
		t.Fatalf("%d of %d sends were deferred; the test needs all of them to be", got, n)
	}
	recvSeq(t, p.b, 0, n)
}

// pipePeer is a transport with one injected connection: a pipe to a peer
// that exists only as the test's end of it. A pipe write blocks until the
// test reads, so the test decides when frames can leave. ch's inbox is busy:
// everything it sends to addr is deferred.
type pipePeer struct {
	tr   *TCPTransport
	tc   *tcpConn
	ch   *tcpChan
	peer net.Conn // the test's end
	addr Addr     // a channel of the imaginary peer transport
}

func newPipePeer(t *testing.T) *pipePeer {
	t.Helper()
	tr, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c2.Close() })
	tc := newTCPConn(tr, c1, "pipe-peer:1")
	tr.mu.Lock()
	tr.conns[tc.peer] = tc
	tcpConnsLive.Add(1)
	tr.mu.Unlock()
	ch := tr.newChan(false)
	ch.push(Frame{Data: []byte("keeps the inbox busy")})
	return &pipePeer{tr: tr, tc: tc, ch: ch, peer: c2, addr: "tcp://pipe-peer:1/1"}
}

// closeInBackground starts the transport's Close and returns a channel
// closed when it has returned.
func (pp *pipePeer) closeInBackground() <-chan struct{} {
	closed := make(chan struct{})
	go func() {
		pp.tr.Close()
		close(closed)
	}()
	return closed
}

// TestCloseFlushWaitsForBlockedWriter makes rule 1 deterministic: the
// flusher is parked in a write nobody reads, more deferred frames pile up
// behind it, and Close is already under way before the peer reads a byte —
// so every frame the peer then receives got there because Close waited.
func TestCloseFlushWaitsForBlockedWriter(t *testing.T) {
	pp := newPipePeer(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := pp.ch.Send(pp.addr, seqFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	closed := pp.closeInBackground()
	waitUntil(t, "Close to start", func() bool {
		pp.tr.mu.Lock()
		defer pp.tr.mu.Unlock()
		return pp.tr.closed
	})
	rd := newFrameReader(pp.peer)
	for i := 0; i < n; i++ {
		data, _, err := rd.next(maxFrame)
		if err != nil {
			t.Fatalf("frame %d of %d accepted before Close: %v", i, n, err)
		}
		if got := int(binary.BigEndian.Uint32(data[muxHdrLen:])); got != i {
			t.Fatalf("frame %d arrived where %d was expected", got, i)
		}
	}
	select {
	case <-closed:
	case <-time.After(deferTestBound):
		t.Fatal("Close did not return after its frames were read")
	}
}

// TestCloseFlushBoundedOnStuckPeer is the other half of rule 1: a peer that
// stopped reading cannot hang Close. Nobody reads the pipe, so the flusher
// parks in its write with the deferred frame; Close waits for it only until
// the write deadline, then fails the connection.
func TestCloseFlushBoundedOnStuckPeer(t *testing.T) {
	baseline := leaktest.Baseline()
	pp := newPipePeer(t)
	pp.tr.closeFlushTimeout = 50 * time.Millisecond
	if err := pp.ch.Send(pp.addr, []byte("never read")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pp.closeInBackground():
	case <-time.After(deferTestBound):
		t.Fatal("Close hung on a peer that does not read")
	}
	if pp.tc.failure() == nil {
		t.Error("connection not failed after Close")
	}
	waitFlushers(t, 0)
	leaktest.Check(t, baseline)
}

// TestFlusherLifecycle is rule 5: the flusher starts on a connection's first
// deferred frame and exits when the transport closes, when the connection
// is dropped, and when the peer resets it — after which the next send
// re-dials and is delivered.
func TestFlusherLifecycle(t *testing.T) {
	// deferOne starts p.ta's flusher by deferring one frame, and sees it
	// delivered.
	deferOne := func(t *testing.T, p *deferPair) {
		t.Helper()
		if err := newInboxFiller(p.b, p.a).fill(); err != nil {
			t.Fatal(err)
		}
		if err := p.a.Send(p.b.Addr(), seqFrame(0)); err != nil {
			t.Fatal(err)
		}
		recvSeq(t, p.b, 0, 1)
		waitFlushers(t, 1)
	}

	t.Run("close", func(t *testing.T) {
		baseline := leaktest.Baseline()
		p := newDeferPair(t)
		if p.ta.testConn(p.tb).hasFlusher() {
			t.Error("flusher started before the first deferred frame")
		}
		deferOne(t, p)
		p.ta.Close()
		p.tb.Close()
		waitFlushers(t, 0)
		leaktest.Check(t, baseline)
	})

	t.Run("dropConn", func(t *testing.T) {
		baseline := leaktest.Baseline()
		p := newDeferPair(t)
		deferOne(t, p)
		p.ta.dropConn(p.tb.hostport, p.ta.testConn(p.tb), errors.New("dropped by the test"))
		waitFlushers(t, 0)
		p.ta.Close()
		p.tb.Close()
		leaktest.Check(t, baseline)
	})

	t.Run("peer reset mid-batch", func(t *testing.T) {
		baseline := leaktest.Baseline()
		p := newDeferPair(t)
		deferOne(t, p)
		old := p.ta.testConn(p.tb)
		// The peer resets the connection in the middle of a run of deferred
		// sends. Frames accepted but unwritten are lost with it, and sends
		// may fail until the sender's side has noticed; neither is an error
		// here.
		for i := 1; i <= 1000; i++ {
			if i == 500 {
				p.tb.dropConn(p.ta.hostport, p.tb.testConn(p.ta), errors.New("reset by the test"))
			}
			_ = p.a.Send(p.b.Addr(), seqFrame(i))
		}
		waitUntil(t, "the sender's side to notice the reset", func() bool { return old.failure() != nil })
		// The failed connection is out of the table: this send re-dials.
		if err := p.a.Send(p.b.Addr(), []byte("after the reset")); err != nil {
			t.Fatalf("send after reset: %v", err)
		}
		if cur := p.ta.testConn(p.tb); cur == nil || cur == old {
			t.Fatalf("send after reset did not re-dial (conn %p, failed one %p)", cur, old)
		}
		for {
			fr, err := recvWithin(p.b, deferTestBound)
			if err != nil {
				t.Fatalf("frame sent after the reset not delivered: %v", err)
			}
			if string(fr.Data) == "after the reset" {
				break
			}
		}
		p.ta.Close()
		p.tb.Close()
		waitFlushers(t, 0)
		leaktest.Check(t, baseline)
	})
}
