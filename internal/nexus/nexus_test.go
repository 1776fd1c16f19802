package nexus

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

func TestInprocSendRecv(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	b := f.NewEndpoint("b")
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	fr, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if fr.From != a.Addr() || string(fr.Data) != "ping" {
		t.Fatalf("frame = %+v", fr)
	}
}

func TestInprocOrderPreserved(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	b := f.NewEndpoint("b")
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		fr, _ := b.Recv()
		if fr.Data[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestInprocPoll(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	b := f.NewEndpoint("b")
	if _, ok, _ := b.Poll(); ok {
		t.Fatal("poll on empty inbox returned a frame")
	}
	a.Send(b.Addr(), []byte("x"))
	fr, ok, err := b.Poll()
	if !ok || err != nil || string(fr.Data) != "x" {
		t.Fatalf("poll = %v %v %v", fr, ok, err)
	}
}

func TestInprocNoRoute(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	if err := a.Send("inproc://nobody/99", nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// TestInprocTableUnderChurn: sends look their destination up without a lock
// while other goroutines add and close endpoints. Every frame to the stable
// endpoint arrives, a send to a closed one finds no route or a closed inbox,
// and a closed endpoint's address stops resolving.
func TestInprocTableUnderChurn(t *testing.T) {
	f := NewInproc()
	dst := f.NewEndpoint("dst")
	const senders, sends = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := f.NewEndpoint("src")
			for i := 0; i < sends; i++ {
				if err := src.Send(dst.Addr(), []byte{byte(i)}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
				gone := f.NewEndpoint("gone")
				gone.Close()
				if err := src.Send(gone.Addr(), nil); !errors.Is(err, ErrNoRoute) {
					t.Errorf("send to a closed endpoint: %v, want ErrNoRoute", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*sends; i++ {
		if _, ok, err := dst.Poll(); !ok || err != nil {
			t.Fatalf("frame %d of %d: ok %v, err %v", i, senders*sends, ok, err)
		}
	}
	if n := len(*f.eps.Load()); n != 1+senders {
		t.Fatalf("table holds %d endpoints, want %d", n, 1+senders)
	}
}

func TestInprocCloseUnblocksRecv(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = a.Recv()
	}()
	a.Close()
	wg.Wait()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	b := f.NewEndpoint("b")
	if err := b.Send(a.Addr(), nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("send to closed = %v, want ErrNoRoute", err)
	}
}

func TestInprocSendCopiesData(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	b := f.NewEndpoint("b")
	buf := []byte("mutate-me")
	a.Send(b.Addr(), buf)
	buf[0] = 'X'
	fr, _ := b.Recv()
	if string(fr.Data) != "mutate-me" {
		t.Fatal("send aliased caller's buffer")
	}
}

func TestTCPSendRecvBothDirections(t *testing.T) {
	a, err := NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint("")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	fr, err := b.Recv()
	if err != nil || string(fr.Data) != "hello" || fr.From != a.Addr() {
		t.Fatalf("b got %+v, %v", fr, err)
	}
	// Reply flows back over the same connection.
	if err := b.Send(fr.From, []byte("world")); err != nil {
		t.Fatal(err)
	}
	fr2, err := a.Recv()
	if err != nil || string(fr2.Data) != "world" || fr2.From != b.Addr() {
		t.Fatalf("a got %+v, %v", fr2, err)
	}
}

func TestTCPLargeFrameAndOrder(t *testing.T) {
	a, _ := NewTCPEndpoint("")
	defer a.Close()
	b, _ := NewTCPEndpoint("")
	defer b.Close()
	big := bytes.Repeat([]byte{7}, 1<<20)
	for i := 0; i < 5; i++ {
		payload := append([]byte{byte(i)}, big...)
		if err := a.Send(b.Addr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		fr, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data[0] != byte(i) || len(fr.Data) != 1+(1<<20) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

func TestTCPNoRoute(t *testing.T) {
	a, _ := NewTCPEndpoint("")
	defer a.Close()
	if err := a.Send("tcp://127.0.0.1:1", nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if err := a.Send("inproc://x/1", nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("wrong-scheme err = %v, want ErrNoRoute", err)
	}
}

func TestSimFabricCostsAndRouting(t *testing.T) {
	sim := vtime.NewSim()
	fab := NewSimFabric(sim)
	h1 := simnet.NewHost("h1", 1, 1, 0, 0)
	h2 := simnet.NewHost("h2", 1, 1, 0, 0)
	link := simnet.NewLink("wire", vtime.Milliseconds(10), 1e6) // 1 MB/s
	fab.Connect("h1", "h2", link)

	var sendDone, recvAt vtime.Time
	ready := vtime.NewChan(sim, "ready")
	addrCh := make(chan Addr, 1)
	sim.Spawn("rx", func(p *vtime.Proc) {
		ep := fab.NewEndpoint("rx", p, h2)
		addrCh <- ep.Addr()
		p.Send(ready, struct{}{}, 0)
		fr, err := ep.Recv()
		if err != nil || len(fr.Data) != 1_000_000 {
			panic(fmt.Sprintf("recv: %v %d", err, len(fr.Data)))
		}
		recvAt = p.Now()
	})
	sim.Spawn("tx", func(p *vtime.Proc) {
		ep := fab.NewEndpoint("tx", p, h1)
		p.Recv(ready)
		if err := ep.Send(<-addrCh, make([]byte, 1_000_000)); err != nil {
			panic(err)
		}
		sendDone = p.Now()
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone < vtime.Seconds(1) {
		t.Fatalf("sender occupied %v, want >= 1s wire occupancy", sendDone)
	}
	if recvAt < sendDone+vtime.Milliseconds(10) {
		t.Fatalf("arrival %v before latency after send end %v", recvAt, sendDone)
	}
}

func TestSimFabricLoopbackIsCheap(t *testing.T) {
	sim := vtime.NewSim()
	fab := NewSimFabric(sim)
	h := simnet.NewHost("h", 1, 2, 0, 0)
	var elapsed vtime.Time
	sim.Spawn("both", func(p *vtime.Proc) {
		a := fab.NewEndpoint("a", p, h)
		b := fab.NewEndpoint("b", p, h)
		if err := a.Send(b.Addr(), make([]byte, 100_000)); err != nil {
			panic(err)
		}
		fr, err := b.Recv()
		if err != nil || len(fr.Data) != 100_000 {
			panic("loopback lost frame")
		}
		elapsed = p.Now()
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed > vtime.Milliseconds(5) {
		t.Fatalf("loopback took %v, want well under 5ms", elapsed)
	}
}

func TestSimFabricNoRouteBetweenUnconnectedHosts(t *testing.T) {
	sim := vtime.NewSim()
	fab := NewSimFabric(sim)
	h1 := simnet.NewHost("h1", 1, 1, 0, 0)
	h2 := simnet.NewHost("h2", 1, 1, 0, 0)
	var sendErr error
	sim.Spawn("p", func(p *vtime.Proc) {
		a := fab.NewEndpoint("a", p, h1)
		b := fab.NewEndpoint("b", p, h2)
		sendErr = a.Send(b.Addr(), nil)
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", sendErr)
	}
}

// TestWaiterParksBeyondDurationRange: an instant further off than a
// time.Duration holds — +Inf included — parks until a frame arrives. A
// naive conversion overflows to a negative wait that returns at once, and a
// thread's deadline receive with such a timeout spins.
func TestWaiterParksBeyondDurationRange(t *testing.T) {
	fab := NewInproc()
	a, b := fab.NewEndpoint("a"), fab.NewEndpoint("b")
	defer a.Close()
	defer b.Close()
	w := NewWaiter(time.Now())
	w.Watch(b)
	for _, span := range []float64{1e10, math.Inf(1)} {
		woke := make(chan struct{})
		go func() {
			w.WaitUntil(w.Elapsed() + span)
			close(woke)
		}()
		select {
		case <-woke:
			t.Fatalf("WaitUntil(now + %g s) returned with nothing arrived", span)
		case <-time.After(50 * time.Millisecond):
		}
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatalf("WaitUntil(now + %g s) missed the arrival", span)
		}
		if _, ok, _ := b.Poll(); !ok {
			t.Fatal("the frame is gone")
		}
	}
}
