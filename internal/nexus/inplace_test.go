package nexus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pardis/internal/obs/leaktest"
)

// The tests below pin who reads a frame (DESIGN.md §12): a connection that
// is its transport's only one, on a transport with one channel, is read by
// the channel's owner, and every event that ends that hands it to a reader
// goroutine without losing, repeating or reordering a frame.

// inPlacePair is two standalone endpoints with the one connection between
// them read in place at both ends.
func inPlacePair(t *testing.T) (a, b *tcpChan) {
	t.Helper()
	a, b = newPair(t)
	for _, hop := range [][2]*tcpChan{{a, b}, {b, a}} {
		if err := hop[0].Send(hop[1].Addr(), []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if fr, err := recvOrFail(hop[1]); err != nil || string(fr.Data) != "warm" {
			t.Fatalf("warm-up frame: %q, %v", fr.Data, err)
		}
	}
	for _, e := range []*tcpChan{a, b} {
		if e.t.solo.Load() == nil {
			t.Fatalf("%s does not read in place after the warm-up", e.Addr())
		}
	}
	return a, b
}

// recvOrFail is ep.Recv bounded by deferTestBound.
func recvOrFail(ep Endpoint) (Frame, error) {
	type got struct {
		fr  Frame
		err error
	}
	ch := make(chan got, 1)
	go func() {
		fr, err := ep.Recv()
		ch <- got{fr, err}
	}()
	select {
	case g := <-ch:
		return g.fr, g.err
	case <-time.After(deferTestBound):
		return Frame{}, fmt.Errorf("no frame at %s within %v", ep.Addr(), deferTestBound)
	}
}

// readLoops counts the process's reader goroutines.
func readLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "nexus.(*TCPTransport).readLoop(")
}

// parked waits until the owner of tc's channel is in a read in place.
func parked(t *testing.T, tc *tcpConn) {
	t.Helper()
	waitUntil(t, "the owner to park in a read in place", func() bool { return tc.rstate.Load() == rdBusy })
}

// TestInPlaceEcho: a 1:1 echo over two standalone endpoints runs with no
// reader goroutine, every frame read in place by the thread that waits for
// it.
func TestInPlaceEcho(t *testing.T) {
	baseline := leaktest.Baseline()
	loops := readLoops()
	a, b := inPlacePair(t)
	const n = 200
	read0, hand0 := tcpReadInPlace.Load(), tcpReadHandoffs.Load()
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			fr, err := b.Recv()
			if err == nil {
				err = b.Send(fr.From, fr.Data)
			}
			fr.Release()
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), seqFrame(i)); err != nil {
			t.Fatal(err)
		}
		fr, err := recvOrFail(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(binary.BigEndian.Uint32(fr.Data)); got != i {
			t.Fatalf("echo %d came back as %d", i, got)
		}
		fr.Release()
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	if got := readLoops(); got > loops {
		t.Errorf("%d reader goroutines during the echo, %d before it", got, loops)
	}
	if got := tcpReadInPlace.Load() - read0; got != 2*n {
		t.Errorf("%d frames read in place, want all %d", got, 2*n)
	}
	if got := tcpReadHandoffs.Load() - hand0; got != 0 {
		t.Errorf("%d connections handed to a reader goroutine, want 0", got)
	}
	a.Close()
	b.Close()
	leaktest.Check(t, baseline)
}

// notifyOnly forwards RecvNotifier but not the read hook, as a decorator
// outside this package does.
type notifyOnly struct{ Endpoint }

func (e notifyOnly) SetRecvNotify(fn func()) bool { return e.Endpoint.(RecvNotifier).SetRecvNotify(fn) }

// TestInPlaceHandOff: a second connection, a second channel and a watcher
// that cannot read each hand the connection to a reader goroutine, which
// goes on from the frames the owner's reader had already buffered: each
// delivered once, in order.
func TestInPlaceHandOff(t *testing.T) {
	for _, tt := range []struct {
		name    string
		trigger func(t *testing.T, b *tcpChan)
	}{
		{"second connection", func(t *testing.T, b *tcpChan) {
			c, err := net.Dial("tcp", b.t.hostport)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
		}},
		{"second channel", func(t *testing.T, b *tcpChan) { b.t.NewChannel() }},
		{"hidden hook", func(t *testing.T, b *tcpChan) {
			if !NewWaiter().Watch(notifyOnly{b}) {
				t.Fatal("the wrapper's watch does not signal")
			}
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			baseline := leaktest.Baseline()
			a, b := inPlacePair(t)
			hand0 := tcpReadHandoffs.Load()
			const n = 50
			newInboxFiller(b, a).fill() // a's burst defers (observation (a)): one write
			for i := 0; i < n; i++ {
				if err := a.Send(b.Addr(), seqFrame(i)); err != nil {
					t.Fatal(err)
				}
			}
			recvInOrder(t, b, 0, 1) // its read buffers some of the rest
			tt.trigger(t, b)
			waitUntil(t, "the hand-over", func() bool { return tcpReadHandoffs.Load() > hand0 })
			if b.t.solo.Load() != nil {
				t.Fatal("the transport still reads in place")
			}
			recvInOrder(t, b, 1, n)
			if err := a.Send(b.Addr(), []byte("end")); err != nil {
				t.Fatal(err)
			}
			if fr, err := recvOrFail(b); err != nil || string(fr.Data) != "end" {
				t.Fatalf("after the last frame: %q, %v; want the end marker", fr.Data, err)
			}
			a.Close()
			b.Close()
			leaktest.Check(t, baseline)
		})
	}
}

// recvInOrder receives the sequence frames [from, to) from ep, in order,
// through Recv: unlike recvSeq it registers no waiter on ep.
func recvInOrder(t *testing.T, ep Endpoint, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		fr, err := recvOrFail(ep)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := int(binary.BigEndian.Uint32(fr.Data)); got != i {
			t.Fatalf("frame %d arrived where %d was expected", got, i)
		}
		fr.Release()
	}
}

// TestInPlaceFloodBothWays: two endpoints that read in place each send the
// other 16 MiB of small frames before either receives. Both socket buffers
// fill, and a sender about to block hands its connections to reader
// goroutines, so both finish.
func TestInPlaceFloodBothWays(t *testing.T) {
	baseline := leaktest.Baseline()
	a, b := inPlacePair(t)
	const payload = 1000
	const n = 16<<20/payload + 1
	done := make(chan error, 2)
	for _, hop := range [][2]*tcpChan{{a, b}, {b, a}} {
		go func(src, dst *tcpChan) {
			buf := make([]byte, payload)
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint32(buf, uint32(i))
				if err := src.Send(dst.Addr(), buf); err != nil {
					done <- err
					return
				}
			}
			for i := 0; i < n; i++ {
				fr, err := src.Recv()
				if err != nil {
					done <- err
					return
				}
				if got := int(binary.BigEndian.Uint32(fr.Data)); got != i || len(fr.Data) != payload {
					done <- fmt.Errorf("%s: frame %d arrived where %d was expected", src.Addr(), got, i)
					return
				}
				fr.Release()
			}
			done <- nil
		}(hop[0], hop[1])
	}
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("two endpoints flooding each other did not finish in 60 s")
		}
	}
	a.Close()
	b.Close()
	leaktest.Check(t, baseline)
}

// TestInPlaceNotPlacedWhileWriteWaits: a connection named while a write of
// the process waits for room in a socket goes to a reader goroutine, for
// the waiting thread may be the one that would read it.
func TestInPlaceNotPlacedWhileWriteWaits(t *testing.T) {
	baseline := leaktest.Baseline()
	a, b := newPair(t)
	func() {
		blockedWrites.Add(1)
		defer blockedWrites.Add(-1)
		for _, hop := range [][2]*tcpChan{{a, b}, {b, a}} {
			if err := hop[0].Send(hop[1].Addr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := recvOrFail(hop[1]); err != nil {
				t.Fatal(err)
			}
		}
	}()
	for _, e := range []*tcpChan{a, b} {
		if e.t.solo.Load() != nil {
			t.Errorf("%s reads in place although a write was waiting when its connection was named", e.Addr())
		}
	}
	a.Close()
	b.Close()
	leaktest.Check(t, baseline)
}

// newPair is two standalone endpoints with no connection yet.
func newPair(t *testing.T) (a, b *tcpChan) {
	t.Helper()
	ea, err := NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewTCPEndpoint("")
	if err != nil {
		ea.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	return ea.(*tcpChan), eb.(*tcpChan)
}

// TestInPlaceWriteBeforePlacement: a thread that dials a peer and fills the
// socket before the peer's end has read the hello, and so before that end
// can be placed, then receives its own frames there: the end is not placed
// while the write waits, or the waiting thread would be its only reader.
// Repeated on one processor, where the peer's hello is read latest.
func TestInPlaceWriteBeforePlacement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	big := make([]byte, 1<<20)
	for range 20 {
		baseline := leaktest.Baseline()
		a, b := newPair(t)
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < 5; i++ {
				big[0] = byte(i)
				if err := a.Send(b.Addr(), big); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		select {
		case err := <-sent:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(deferTestBound):
			t.Fatalf("5 MiB to a peer not yet placed still not written after %v", deferTestBound)
		}
		for i := 0; i < 5; i++ {
			fr, err := recvOrFail(b)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Data[0] != byte(i) || len(fr.Data) != len(big) {
				t.Fatalf("frame %d arrived as frame %d of %d bytes", i, fr.Data[0], len(fr.Data))
			}
		}
		a.Close()
		b.Close()
		leaktest.Check(t, baseline)
	}
}

// TestInPlaceWakes: an owner parked in a read in place is woken by Close of
// its endpoint or channel, by the frame the ORB's cancel sends its own
// address, and — in a timed wait — by a frame at another endpoint the wait
// watches; with none, a timed wait in place does not end before its instant.
func TestInPlaceWakes(t *testing.T) {
	// parkedRecv starts the owner's Recv and waits until it reads in place.
	parkedRecv := func(t *testing.T, e *tcpChan) <-chan error {
		t.Helper()
		tc := e.t.solo.Load()
		if tc == nil {
			t.Fatal("the channel does not read in place")
		}
		got := make(chan error, 1)
		go func() {
			fr, err := e.Recv()
			if err == nil && string(fr.Data) != "wake" {
				err = fmt.Errorf("Recv returned %q", fr.Data)
			}
			got <- err
		}()
		parked(t, tc)
		return got
	}
	within := func(t *testing.T, got <-chan error, want error) {
		t.Helper()
		select {
		case err := <-got:
			if err != want {
				t.Fatalf("Recv = %v, want %v", err, want)
			}
		case <-time.After(time.Second):
			t.Fatal("the owner was still parked 1 s later")
		}
	}

	t.Run("close endpoint", func(t *testing.T) {
		baseline := leaktest.Baseline()
		_, b := inPlacePair(t)
		got := parkedRecv(t, b)
		b.Close()
		within(t, got, ErrClosed)
		leaktest.Check(t, baseline)
	})

	t.Run("close channel", func(t *testing.T) {
		baseline := leaktest.Baseline()
		tr, err := NewTCPTransport("")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		b := tr.NewChannel().(*tcpChan)
		a, err := NewTCPEndpoint("")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if err := a.Send(b.Addr(), []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if _, err := recvOrFail(b); err != nil {
			t.Fatal(err)
		}
		got := parkedRecv(t, b)
		hand0 := tcpReadHandoffs.Load()
		b.Close()
		within(t, got, ErrClosed)
		// The transport is left without a channel, and a reader goroutine
		// drops what still comes for the closed one.
		if tr.solo.Load() != nil || tcpReadHandoffs.Load() == hand0 {
			t.Fatal("the connection is still read in place after its channel closed")
		}
		if err := a.Send(b.Addr(), []byte("late")); err != nil {
			t.Fatal(err)
		}
		a.Close()
		tr.Close()
		leaktest.Check(t, baseline)
	})

	t.Run("send to own address", func(t *testing.T) {
		baseline := leaktest.Baseline()
		_, b := inPlacePair(t)
		got := parkedRecv(t, b)
		if err := b.Send(b.Addr(), []byte("wake")); err != nil {
			t.Fatal(err)
		}
		within(t, got, nil)
		b.Close()
		leaktest.Check(t, baseline)
	})

	t.Run("timed wait", func(t *testing.T) {
		baseline := leaktest.Baseline()
		_, b := inPlacePair(t)
		fab := NewInproc()
		x, y := fab.NewEndpoint("x"), fab.NewEndpoint("y")
		w := NewWaiter()
		if !w.Watch(b) || !w.Watch(x) {
			t.Fatal("a watched endpoint does not signal")
		}
		hand0 := tcpReadHandoffs.Load()

		// A frame at the other endpoint ends a long wait in the read.
		for _, at := range []float64{w.Elapsed() + 10, math.Inf(1)} {
			woke := make(chan struct{})
			go func() {
				w.WaitUntil(at)
				close(woke)
			}()
			waitUntil(t, "the wait to park in the read", func() bool { return w.parked.Load() != nil })
			if err := y.Send(x.Addr(), []byte("elsewhere")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-woke:
			case <-time.After(time.Second):
				t.Fatalf("a wait until %g parked in the read was still parked 1 s after a frame reached another endpoint it watches", at)
			}
			if _, ok, _ := x.Poll(); !ok {
				t.Fatal("the frame at the other endpoint is gone")
			}
		}
		if b.t.solo.Load() == nil || tcpReadHandoffs.Load() != hand0 {
			t.Fatal("the connection left the owner during the waits")
		}

		// No frame anywhere: the wait lasts until its instant, parked in
		// the read, and the connection stays with the owner, on one
		// processor as on two.
		at := w.Elapsed() + 0.05
		w.WaitUntil(at)
		if now := w.Elapsed(); now < at {
			t.Fatalf("a wait with nothing arriving ended %.6fs before its instant", at-now)
		}
		if b.t.solo.Load() == nil || tcpReadHandoffs.Load() != hand0 {
			t.Fatal("a wait its deadline ended handed the connection over")
		}
		b.Close()
		x.Close()
		y.Close()
		leaktest.Check(t, baseline)
	})
}

// TestInPlaceWaitOutlastsPeek: a timed wait that finds the read role taken
// by the flusher's peek waits for the role, not for its instant — the
// connection has no other reader, so a frame reaching it while the wait
// parked elsewhere would signal nobody.
func TestInPlaceWaitOutlastsPeek(t *testing.T) {
	baseline := leaktest.Baseline()
	a, b := inPlacePair(t)
	tc := b.t.solo.Load()
	w := waiterOf(b)
	if !tc.rstate.CompareAndSwap(rdIdle, rdBusy) { // as peek takes it
		t.Fatal("the read role is not free")
	}
	woke := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		w.WaitUntil(w.Elapsed() + 5)
		woke <- time.Since(start)
	}()
	time.Sleep(20 * time.Millisecond) // let the wait find the role taken
	tc.release()
	if err := a.Send(b.Addr(), []byte("after the peek")); err != nil {
		t.Fatal(err)
	}
	select {
	case took := <-woke:
		if took > time.Second {
			t.Fatalf("the wait ended %v after it began, not on the frame", took)
		}
	case <-time.After(time.Second):
		t.Fatal("a wait that found the role taken was still parked 1 s after a frame reached its connection")
	}
	if fr, ok, err := b.Poll(); err != nil || !ok || string(fr.Data) != "after the peek" {
		t.Fatalf("Poll after the wait: %q, %v, %v", fr.Data, ok, err)
	}
	a.Close()
	b.Close()
	leaktest.Check(t, baseline)
}

// rawPeer dials ep's transport as a peer that announces addr and writes its
// frames by hand.
func rawPeer(t *testing.T, ep *tcpChan, addr string) (net.Conn, *tcpConn) {
	t.Helper()
	c, err := net.Dial("tcp", ep.t.hostport)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	w := newTCPConn(nil, c, "raw")
	if err := w.sendFrame(0, 0, [][]byte{[]byte(addr)}, false); err != nil {
		t.Fatal(err)
	}
	return c, w
}

// TestInPlaceBadFrameFailsConn: a frame too short for the mux header, or
// longer than maxFrame, fails a connection read in place as it fails one a
// reader goroutine reads: the connection leaves the table and is closed.
func TestInPlaceBadFrameFailsConn(t *testing.T) {
	for _, tt := range []struct {
		name  string
		frame []byte
	}{
		{"short", []byte{0, 0, 0, 3, 1, 2, 3}},
		{"oversized", binary.BigEndian.AppendUint32(nil, maxFrame+1)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			baseline := leaktest.Baseline()
			ep, err := NewTCPEndpoint("")
			if err != nil {
				t.Fatal(err)
			}
			b := ep.(*tcpChan)
			c, _ := rawPeer(t, b, "tcp://127.0.0.1:4242")
			waitUntil(t, "the connection to be read in place", func() bool { return b.t.solo.Load() != nil })
			if _, err := c.Write(tt.frame); err != nil {
				t.Fatal(err)
			}
			w := waiterOf(b)
			for at := w.Elapsed() + deferTestBound.Seconds(); w.Elapsed() < at; w.WaitUntil(at) {
				if fr, ok, err := b.Poll(); ok || err != nil {
					t.Fatalf("Poll delivered %q, %v", fr.Data, err)
				}
				if b.t.ConnCount() == 0 {
					break
				}
			}
			if n := b.t.ConnCount(); n != 0 {
				t.Fatalf("%d connections after a %s frame, want 0", n, tt.name)
			}
			c.SetReadDeadline(time.Now().Add(deferTestBound))
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("the peer's read after the %s frame: %v, want io.EOF", tt.name, err)
			}
			b.Close()
			leaktest.Check(t, baseline)
		})
	}
}

// TestFromCacheBounded: a peer that sends from 10 000 distinct source ids
// grows the connection's From table only to its cap, and every frame still
// carries its own From.
func TestFromCacheBounded(t *testing.T) {
	ep, err := NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	b := ep.(*tcpChan)
	const peer = "127.0.0.1:4242"
	_, w := rawPeer(t, b, "tcp://"+peer)
	const n = 10000
	go func() {
		for src := uint32(1); src <= n; src++ {
			if w.sendFrame(b.id, src, [][]byte{[]byte("x")}, false) != nil {
				return
			}
		}
	}()
	for src := uint32(1); src <= n; src++ {
		fr, err := recvOrFail(b)
		if err != nil {
			t.Fatal(err)
		}
		if want := tcpChanAddr(peer, src); fr.From != want {
			t.Fatalf("frame from channel %d carries From %q, want %q", src, fr.From, want)
		}
		fr.Release()
	}
	b.t.mu.Lock()
	tc := b.t.conns[peer]
	b.t.mu.Unlock()
	if tc == nil {
		t.Fatal("the peer's connection is not in the table")
	}
	if got := len(tc.fromCache); got > fromCacheMax {
		t.Fatalf("From table holds %d entries, cap %d", got, fromCacheMax)
	}
}

// TestInPlaceReadAllocFree pins the read in place at no allocation per frame,
// through Recv and through a Waiter's wait followed by Poll.
func TestInPlaceReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	a, b := inPlacePair(t)
	payload := bytes.Repeat([]byte{1}, 64)
	w := waiterOf(b)
	for _, tt := range []struct {
		name string
		recv func() (Frame, error)
	}{
		{"Recv", b.Recv},
		{"wait then Poll", func() (Frame, error) { return recvBy(w, b, w.Elapsed()+deferTestBound.Seconds()) }},
	} {
		round := func() {
			if err := a.Send(b.Addr(), payload); err != nil {
				t.Fatal(err)
			}
			fr, err := tt.recv()
			if err != nil || len(fr.Data) != len(payload) {
				t.Fatalf("%s: %d bytes, %v", tt.name, len(fr.Data), err)
			}
			fr.Release()
		}
		for i := 0; i < 100; i++ {
			round()
		}
		read0 := tcpReadInPlace.Load()
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("%s: %v allocs per frame read in place, want 0", tt.name, allocs)
		}
		if tcpReadInPlace.Load() == read0 {
			t.Errorf("%s: no frame was read in place", tt.name)
		}
	}
}
