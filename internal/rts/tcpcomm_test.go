package rts

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/nexus"
	"pardis/internal/obs"
)

func TestTCPGroupBasics(t *testing.T) {
	// A fixed localhost port for the coordinator (picked to avoid the
	// ephemeral range); retried dials make startup order irrelevant.
	const n = 4
	coord := "127.0.0.1:29731"
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, err := JoinTCP("tcp-host", rank, n, coord, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer th.Close()
			// Point-to-point with tags.
			if rank == 0 {
				for p := 1; p < n; p++ {
					th.Send(p, 7, []byte{byte(p)})
				}
				for p := 1; p < n; p++ {
					m := th.Recv(p, 8)
					if m.Data[0] != byte(p*2) {
						errs[rank] = fmt.Errorf("echo from %d = %d", p, m.Data[0])
					}
				}
			} else {
				m := th.Recv(0, 7)
				th.Send(0, 8, []byte{m.Data[0] * 2})
			}
			th.Barrier()
			// Collectives.
			got := Bcast(th, 1, pick(rank == 1, []byte("hello"), nil))
			if string(got) != "hello" {
				errs[rank] = fmt.Errorf("bcast got %q", got)
			}
			parts := Gather(th, 0, []byte{byte(rank * 3)})
			if rank == 0 {
				for i, p := range parts {
					if p[0] != byte(i*3) {
						errs[rank] = fmt.Errorf("gather[%d] = %d", i, p[0])
					}
				}
			}
			th.Barrier()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func pick[T any](cond bool, a, b T) T {
	if cond {
		return a
	}
	return b
}

func TestTCPGroupProbe(t *testing.T) {
	const n = 2
	coord := "127.0.0.1:29741"
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, err := JoinTCP("h", rank, n, coord, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer th.Close()
			if rank == 0 {
				th.Send(1, 5, []byte("x"))
				th.Recv(1, 6)
				return
			}
			for !th.Probe(0, 5) {
				th.WaitUntil(th.Elapsed() + 10)
			}
			if th.Probe(0, 99) {
				errs[rank] = fmt.Errorf("probe matched wrong tag")
			}
			th.Recv(0, 5)
			th.Send(0, 6, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestJoinTCPValidation(t *testing.T) {
	if _, err := JoinTCP("h", 5, 2, "127.0.0.1:0", time.Second); err == nil {
		t.Fatal("bad rank accepted")
	}
	// A lone non-zero rank with no coordinator times out.
	if _, err := JoinTCP("h", 1, 2, "127.0.0.1:1", 300*time.Millisecond); err == nil {
		t.Fatal("unreachable coordinator accepted")
	}
	// The coordinator refuses a join that claims its own rank, which would
	// replace its address in the table every rank gets, and a join that
	// names no address.
	for i, c := range []struct {
		rank int
		addr string
	}{{0, "tcp://127.0.0.1:1"}, {1, ""}} {
		coord := fmt.Sprintf("127.0.0.1:%d", 29771+i)
		errc := make(chan error, 1)
		go func() {
			th, err := JoinTCP("h", 0, 2, coord, 5*time.Second)
			if err == nil {
				th.Close()
			}
			errc <- err
		}()
		ep, err := nexus.NewTCPEndpoint("")
		if err != nil {
			t.Fatal(err)
		}
		forger := newEPThread("h", c.rank, 2, ep, nil)
		for forger.send(nexus.Addr("tcp://"+coord), tagJoin, []byte(c.addr)) != nil {
			forger.WaitUntil(forger.Elapsed() + 0.01) // the coordinator is not listening yet
		}
		err = <-errc
		ep.Close()
		if err == nil || !strings.Contains(err.Error(), "bad join") {
			t.Fatalf("join as rank %d with address %q: %v, want a bad join", c.rank, c.addr, err)
		}
	}
}

func TestJoinTCPRank0Timeout(t *testing.T) {
	// Rank 0 waits for a rank that never joins: with no traffic at all the
	// deadline must still fire (a deadline checked only after a successful
	// receive would hang bootstrap forever), and not before the budget has
	// passed since the join, however long ago the thread's clock started.
	const budget = 300 * time.Millisecond
	time.Sleep(time.Duration(2*budget.Nanoseconds() - obs.NowNS()))
	start := time.Now()
	_, err := JoinTCP("h", 0, 2, "127.0.0.1:0", budget)
	if err == nil {
		t.Fatal("bootstrap succeeded with a missing rank")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second || elapsed < budget {
		t.Fatalf("bootstrap budget %v not enforced from the join: took %v", budget, elapsed)
	}
}

// TestInPlaceTCPGroup: the ranks of a 2-rank TCP program share one
// connection and each reads it in place — point-to-point frames, a deadline
// receive of 1e10 s that parks in the read until its message comes, and a
// barrier — with no connection handed to a reader goroutine.
func TestInPlaceTCPGroup(t *testing.T) {
	coord := "127.0.0.1:29761"
	const rounds = 50
	read0, hand0 := counterValue("nexus_tcp_frames_read_in_place_total"), counterValue("nexus_tcp_read_handoffs_total")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, err := JoinTCP("h", rank, 2, coord, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer th.Close()
			peer := 1 - rank
			for i := 0; i < rounds; i++ {
				if rank == 0 {
					th.Send(peer, 7, []byte{byte(i)})
				}
				m, ok := RecvTimeout(th, peer, 7, 1e10)
				if !ok || m.Data[0] != byte(i) {
					errs[rank] = fmt.Errorf("round %d: %v, %v", i, m.Data, ok)
					return
				}
				if rank == 1 {
					th.Send(peer, 7, m.Data)
				}
			}
			th.Barrier()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got := counterValue("nexus_tcp_frames_read_in_place_total") - read0; got < 2*rounds {
		t.Errorf("%d frames read in place, want at least the %d of the ping-pong", got, 2*rounds)
	}
	if got := counterValue("nexus_tcp_read_handoffs_total") - hand0; got != 0 {
		t.Errorf("%d connections handed to a reader goroutine, want 0", got)
	}
}

// counterValue reads a counter of the default registry by name.
func counterValue(name string) uint64 {
	var v uint64
	obs.Default.Each(func(n string, m any) {
		if c, ok := m.(*obs.Counter); ok && n == name {
			v = c.Load()
		}
	})
	return v
}

// TestDeadlineRecvWaitsInOneRead: a deadline receive over a connection read
// in place parks in its wait's read without polling the socket first — the
// probes before the wait look only at what has been delivered. A 2-rank
// RecvTimeout ping-pong then finds the socket empty on almost no poll; a
// probe that reads the connection again shows up as several empty polls per
// round.
func TestDeadlineRecvWaitsInOneRead(t *testing.T) {
	coord := "127.0.0.1:29781"
	const rounds = 2000
	empty0 := counterValue("nexus_tcp_polls_empty_total")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, err := JoinTCP("h", rank, 2, coord, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer th.Close()
			peer := 1 - rank
			for i := 0; i < rounds; i++ {
				if rank == 0 {
					th.Send(peer, 7, []byte{byte(i)})
				}
				m, ok := RecvTimeout(th, peer, 7, 30)
				if !ok || m.Data[0] != byte(i) {
					errs[rank] = fmt.Errorf("round %d: %v, %v", i, m.Data, ok)
					return
				}
				if rank == 1 {
					th.Send(peer, 7, m.Data)
				}
			}
			th.Barrier()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	empty := counterValue("nexus_tcp_polls_empty_total") - empty0
	t.Logf("%d empty socket polls in %d rounds", empty, rounds)
	if empty > rounds/100 {
		t.Errorf("%d empty socket polls in %d rounds, want at most %d: a deadline receive polls the connection it is about to read", empty, rounds, rounds/100)
	}
}
