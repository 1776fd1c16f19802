package rts

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/nexus"
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
		forger := newEPThread("h", c.rank, 2, time.Now(), ep, nil)
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
	// receive would hang bootstrap forever).
	start := time.Now()
	_, err := JoinTCP("h", 0, 2, "127.0.0.1:0", 300*time.Millisecond)
	if err == nil {
		t.Fatal("bootstrap succeeded with a missing rank")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced on blocking receive: took %v", elapsed)
	}
}
