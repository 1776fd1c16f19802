package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/dist"
)

func testMoves(n int) []dist.Move {
	moves := make([]dist.Move, n)
	for i := range moves {
		moves[i] = dist.Move{From: 0, To: i}
	}
	return moves
}

func TestFanOutMovesSerialOrder(t *testing.T) {
	var order []int
	err := fanOutMoves(1, testMoves(5), func(m *dist.Move, iov *[2][]byte) error {
		order = append(order, m.To)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, to := range order {
		if to != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestFanOutMovesParallelCoversAll(t *testing.T) {
	const n = 64
	var hits [n]atomic.Int32
	var mu sync.Mutex
	goroutines := map[*[2][]byte]bool{}
	err := fanOutMoves(8, testMoves(n), func(m *dist.Move, iov *[2][]byte) error {
		hits[m.To].Add(1)
		mu.Lock()
		goroutines[iov] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("move %d sent %d times", i, got)
		}
	}
	// Each worker holds a private iov, so at most 8 distinct scratches.
	if len(goroutines) > 8 {
		t.Fatalf("%d iov scratches for 8 workers", len(goroutines))
	}
}

func TestFanOutMovesFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var sent atomic.Int32
	err := fanOutMoves(4, testMoves(100), func(m *dist.Move, iov *[2][]byte) error {
		if m.To == 0 {
			return boom
		}
		sent.Add(1)
		time.Sleep(time.Millisecond) // give the stop flag time to be seen
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if sent.Load() > 50 {
		t.Fatalf("%d sends after the first error", sent.Load())
	}
}

func TestFanOutMovesSerialError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	err := fanOutMoves(1, testMoves(10), func(m *dist.Move, iov *[2][]byte) error {
		n++
		if m.To == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("err = %v after %d sends", err, n)
	}
}

func TestFanOutMovesEdgeCases(t *testing.T) {
	if err := fanOutMoves(4, nil, nil); err != nil {
		t.Fatal(err)
	}
	// More workers than moves clamps down rather than spawning idlers.
	n := 0
	err := fanOutMoves(16, testMoves(1), func(m *dist.Move, iov *[2][]byte) error {
		n++
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("n = %d, err = %v", n, err)
	}
}
