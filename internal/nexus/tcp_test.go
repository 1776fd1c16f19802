package nexus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestTCPDialSingleflight is the dial-storm regression test: many channels
// of one cold transport sending to the same peer concurrently must open
// exactly one physical connection on each side, not one per sender. Run
// with -race, which is what historically exposed duplicate-dial windows.
func TestTCPDialSingleflight(t *testing.T) {
	srv, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inbox := srv.NewChannel()
	cli, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const senders = 64
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		ch := cli.NewChannel()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ch.Send(inbox.Addr(), []byte{byte(i)}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < senders; i++ {
		if _, err := inbox.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if n := cli.ConnCount(); n != 1 {
		t.Errorf("client transport opened %d connections, want 1", n)
	}
	if n := srv.ConnCount(); n != 1 {
		t.Errorf("server transport accepted %d connections, want 1", n)
	}
}

// TestTCPChannelMultiplexing checks that channels of two transports
// exchange frames over one shared connection in both directions, with each
// frame landing in the right channel's inbox stamped with the sending
// channel's address.
func TestTCPChannelMultiplexing(t *testing.T) {
	ta, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	a1, a2 := ta.NewChannel(), ta.NewChannel()
	b1, b2 := tb.NewChannel(), tb.NewChannel()
	if a1.Addr() == a2.Addr() {
		t.Fatalf("sibling channels share an address: %s", a1.Addr())
	}

	if err := a1.Send(b1.Addr(), []byte("a1->b1")); err != nil {
		t.Fatal(err)
	}
	if err := a2.Send(b2.Addr(), []byte("a2->b2")); err != nil {
		t.Fatal(err)
	}
	fr1, err := b1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(fr1.Data) != "a1->b1" || fr1.From != a1.Addr() {
		t.Fatalf("b1 got %q from %s, want %q from %s", fr1.Data, fr1.From, "a1->b1", a1.Addr())
	}
	fr2, err := b2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(fr2.Data) != "a2->b2" || fr2.From != a2.Addr() {
		t.Fatalf("b2 got %q from %s", fr2.Data, fr2.From)
	}

	// Replies to the stamped From address ride the same connection back.
	if err := b1.Send(fr1.From, []byte("b1->a1")); err != nil {
		t.Fatal(err)
	}
	back, err := a1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Data) != "b1->a1" || back.From != b1.Addr() {
		t.Fatalf("a1 got %q from %s", back.Data, back.From)
	}

	if n := ta.ConnCount(); n != 1 {
		t.Errorf("transport a holds %d connections, want 1 shared by all channels", n)
	}
	if n := tb.ConnCount(); n != 1 {
		t.Errorf("transport b holds %d connections, want 1 shared by all channels", n)
	}
}

// TestTCPSendToOwnTransport: the first frame a channel sends to its own
// transport — to itself, as the ORB's cancel wake-up does, or to a sibling —
// travels over a connection the transport dials to itself, and must arrive
// whichever end of that connection's hello is read first. Fresh transports
// each time, since only a first send dials.
func TestTCPSendToOwnTransport(t *testing.T) {
	for i := 0; i < 40; i++ {
		tr, err := NewTCPTransport("")
		if err != nil {
			t.Fatal(err)
		}
		a, b := tr.NewChannel(), tr.NewChannel()
		for _, to := range []Endpoint{a, b} {
			if err := a.Send(to.Addr(), []byte("own")); err != nil {
				t.Fatal(err)
			}
			if fr, err := recvWithin(to, time.Second); err != nil || string(fr.Data) != "own" {
				t.Fatalf("transport %d: frame to %s: %q, %v", i, to.Addr(), fr.Data, err)
			}
		}
		tr.Close()
	}
}

// TestTCPChannelCloseKeepsSiblings checks that closing one channel neither
// tears the shared connection nor disturbs sibling channels, and that
// frames to the closed id are dropped rather than misdelivered.
func TestTCPChannelCloseKeepsSiblings(t *testing.T) {
	ta, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	a := ta.NewChannel()
	dead, live := tb.NewChannel(), tb.NewChannel()
	deadAddr := dead.Addr()
	if err := a.Send(deadAddr, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	// A frame to the closed channel vanishes; the connection survives it.
	if err := a.Send(deadAddr, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(live.Addr(), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	fr, err := live.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(fr.Data) != "alive" {
		t.Fatalf("live channel got %q", fr.Data)
	}
	if n := tb.ConnCount(); n != 1 {
		t.Errorf("closing a channel cost the shared connection: %d conns", n)
	}
}

// TestWriteCombinerCoalesces pins the batching path of the write combiner
// deterministically: a net.Pipe write blocks until the peer reads, so while
// one sender is parked mid-flush the others demonstrably coalesce behind
// it and go out as one multi-frame batch. (Over a real loopback socket a
// small write rarely blocks, so on a single-CPU box batches only form
// under genuine load — which is why this assertion lives here and not in
// the end-to-end burst test below.)
func TestWriteCombinerCoalesces(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	tc := newTCPConn(nil, c1, "combiner-test")
	flushesBefore := tcpCoalescedFlushes.Load()

	var wg sync.WaitGroup
	send := func(s uint32) {
		defer wg.Done()
		if err := tc.sendFrame(1, s, [][]byte{[]byte("coalesce-me")}, false); err != nil {
			t.Error(err)
		}
	}
	// First sender becomes the writer and parks in the pipe write (nothing
	// reads yet).
	wg.Add(1)
	go send(0)
	waitFor := func(cond func() bool, what string) {
		for start := time.Now(); ; {
			tc.mu.Lock()
			ok := cond()
			tc.mu.Unlock()
			if ok {
				return
			}
			if time.Since(start) > 5*time.Second {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor(func() bool { return tc.writing }, "first sender to take the writer role")
	// Seven more senders coalesce behind the blocked flush.
	const followers = 7
	for s := 1; s <= followers; s++ {
		wg.Add(1)
		go send(uint32(s))
	}
	waitFor(func() bool { return tc.pendN == followers }, "followers to coalesce")

	// Only now unblock the pipe: the first frame drains alone, then the
	// followers must arrive as one multi-frame batch.
	rd := newFrameReader(c2)
	for i := 0; i < 1+followers; i++ {
		data, _, err := rd.next(maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if string(data[muxHdrLen:]) != "coalesce-me" {
			t.Fatalf("frame %d corrupted: %q", i, data)
		}
	}
	wg.Wait()
	if got := tcpCoalescedFlushes.Load(); got != flushesBefore+1 {
		t.Fatalf("coalesced flushes: %d, want exactly 1 (the %d-frame batch)", got-flushesBefore, followers)
	}
}

// TestTCPCoalescedBurst drives many concurrent small senders over one
// shared connection and checks every frame arrives intact and per-sender
// order holds under combiner contention.
func TestTCPCoalescedBurst(t *testing.T) {
	srv, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inbox := srv.NewChannel()
	cli, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const senders, per = 16, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ch := cli.NewChannel()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := []byte(fmt.Sprintf("s%02d-%04d", s, i))
				if err := ch.Send(inbox.Addr(), payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	next := map[Addr]int{} // per-sender expected sequence number
	for got := 0; got < senders*per; got++ {
		fr, err := inbox.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var s, i int
		if _, err := fmt.Sscanf(string(fr.Data), "s%02d-%04d", &s, &i); err != nil {
			t.Fatalf("mangled frame %q: %v", fr.Data, err)
		}
		if i != next[fr.From] {
			t.Fatalf("sender %d frame %d arrived when %d was expected — order broken", s, i, next[fr.From])
		}
		next[fr.From]++
	}
	<-done
	if n := cli.ConnCount(); n != 1 {
		t.Errorf("burst used %d connections, want 1", n)
	}
}

// TestTCPLargeAndSmallInterleaved mixes frames far above the coalescing
// limit with small ones from concurrent senders, exercising the writev
// bypass path racing the batch path on one connection.
func TestTCPLargeAndSmallInterleaved(t *testing.T) {
	srv, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inbox := srv.NewChannel()
	cli, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	big := bytes.Repeat([]byte{0xAB}, TCPCoalesceLimit*4)
	var wg sync.WaitGroup
	const bigs, smalls = 20, 400
	wg.Add(2)
	go func() {
		defer wg.Done()
		ch := cli.NewChannel()
		for i := 0; i < bigs; i++ {
			if err := ch.Send(inbox.Addr(), big); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		ch := cli.NewChannel()
		for i := 0; i < smalls; i++ {
			if err := ch.Send(inbox.Addr(), []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	gotBig, gotSmall := 0, 0
	for gotBig+gotSmall < bigs+smalls {
		fr, err := inbox.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch len(fr.Data) {
		case len(big):
			if !bytes.Equal(fr.Data, big) {
				t.Fatal("large frame corrupted in flight")
			}
			gotBig++
		case 1:
			gotSmall++
		default:
			t.Fatalf("frame of unexpected size %d", len(fr.Data))
		}
	}
	wg.Wait()
}

// TestTCPRecvNotify checks the arrival-notification capability: the
// callback fires when a frame lands in an empty inbox, letting a poller
// park instead of sleeping.
func TestTCPRecvNotify(t *testing.T) {
	srv, err := NewTCPTransport("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inbox := srv.NewChannel()
	wake := make(chan struct{}, 1)
	if ok := inbox.(RecvNotifier).SetRecvNotify(func() { wake <- struct{}{} }); !ok {
		t.Fatal("tcp channel does not report RecvNotifier support")
	}
	cli, err := NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(inbox.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("no arrival notification within 5s")
	}
	if fr, ok, err := inbox.Poll(); err != nil || !ok || string(fr.Data) != "ping" {
		t.Fatalf("poll after notify: %q ok=%v err=%v", fr.Data, ok, err)
	}
}

// splitConn is a net.Conn whose reads deliver a fixed byte stream in two
// pieces cut at a chosen offset — the worst a socket can do to a frame
// boundary. Only Read is implemented; the embedded nil Conn panics on
// anything else.
type splitConn struct {
	net.Conn
	stream []byte
	cut    int // first read ends here
}

func (c *splitConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(c.stream)
	if c.cut > 0 {
		n = c.cut
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.stream[:n])
	c.stream = c.stream[n:]
	if c.cut -= n; c.cut < 0 {
		c.cut = 0
	}
	return n, nil
}

// TestReadFrameSplitAtEveryOffset: the buffered reader must yield the same
// frames wherever the byte stream is cut — inside a length prefix, inside a
// small frame sharing the buffer with its neighbours, inside a frame larger
// than the buffer (read straight into its own storage) — and every frame
// must own its bytes rather than alias the read buffer.
func TestReadFrameSplitAtEveryOffset(t *testing.T) {
	var want [][]byte
	for i, n := range []int{11, 0, tcpReadBuf + 905, 64, 1, tcpReadBuf, 300} {
		want = append(want, bytes.Repeat([]byte{byte('a' + i)}, n))
	}
	var stream []byte
	for _, f := range want {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(f)))
		stream = append(stream, f...)
	}
	for cut := 0; cut <= len(stream); cut++ {
		br := newFrameReader(&splitConn{stream: append([]byte(nil), stream...), cut: cut})
		var got [][]byte
		for range want {
			f, _, err := br.next(maxFrame)
			if err != nil {
				t.Fatalf("cut %d: frame %d: %v", cut, len(got), err)
			}
			got = append(got, f)
		}
		// Compare only after every frame is read: a frame aliasing the read
		// buffer would have been overwritten by its successors.
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: frame %d differs (%d bytes, want %d)", cut, i, len(got[i]), len(want[i]))
			}
		}
		if _, _, err := br.next(maxFrame); err != io.EOF {
			t.Fatalf("cut %d: read past the stream: err = %v, want io.EOF", cut, err)
		}
	}
}
