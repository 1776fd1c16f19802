package rts

import (
	"fmt"
	"strings"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/nexus"
)

// TCPThread is the distributed RTS backend: the computing threads of one
// parallel program live in genuinely distinct address spaces (separate OS
// processes, or separate endpoints at least) and exchange messages over
// TCP. It is the closest analog of the paper's MPI deployment. A PARDIS
// server on this backend gives its ORB a *separate* TCP endpoint: rts data
// frames and pgiop frames are distinct protocols, and each receive loop owns
// its own port.
//
// Bootstrap: rank 0 listens at a well-known address (the "machinefile"
// role); other ranks dial it, announce themselves, and receive the full
// rank->address table once everyone has joined. From then on it is the
// endpoint thread ChanGroup's threads are.
//
// TCPThread does not implement the optional Window capability — with truly
// separate address spaces there is no shared store, so DSeq.At on remote
// elements is unavailable, exactly the functionality restriction the paper
// accepts for minimal two-sided run-time systems.
type TCPThread struct {
	epThread
}

var _ Thread = (*TCPThread)(nil)

// Bootstrap tags: a joining rank sends rank 0 its address, and rank 0
// answers every rank with the table once all have joined.
const (
	tagJoin Tag = ReservedBase + 0x10 + iota
	tagTable
)

// JoinTCP enters a TCP parallel program of the given size as the given
// rank. Rank 0 must listen at coordAddr (host:port); other ranks dial it.
// The call returns when every rank has joined. timeout bounds the whole
// bootstrap.
func JoinTCP(hostName string, rank, size int, coordAddr string, timeout time.Duration) (*TCPThread, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("rts: rank %d out of range [0,%d)", rank, size)
	}
	listen := ""
	if rank == 0 {
		listen = coordAddr
	}
	ep, err := nexus.NewTCPEndpoint(listen)
	if err != nil {
		return nil, err
	}
	t := &TCPThread{newEPThread(hostName, rank, size, ep, make([]nexus.Addr, size))}
	t.table[rank] = ep.Addr()
	// Bootstrap messages are rts messages received on this goroutine
	// (RecvTimeout), so a failed bootstrap leaves no receiver behind: it only
	// releases the endpoint. The time left is on t's clock, counted from now.
	fail := func(format string, args ...any) (*TCPThread, error) {
		ep.Close()
		return nil, fmt.Errorf("rts: bootstrap: "+format, args...)
	}
	end := t.Elapsed() + timeout.Seconds()
	left := func() float64 { return end - t.Elapsed() }

	if rank == 0 {
		for joined := 1; joined < size; {
			m, ok := RecvTimeout(t, AnySource, tagJoin, left())
			if !ok {
				return fail("timed out with %d/%d ranks", joined, size)
			}
			// Rank 0 is this coordinator: no join may replace its address.
			if m.Src == 0 || len(m.Data) == 0 {
				return fail("bad join from rank %d", m.Src)
			}
			if t.table[m.Src] == "" {
				joined++
			}
			t.table[m.Src] = nexus.Addr(m.Data)
		}
		e := cdr.NewEncoder(64)
		e.PutSeqLen(size)
		for _, a := range t.table {
			e.PutString(string(a))
		}
		for r := 1; r < size; r++ {
			if err := t.send(t.table[r], tagTable, e.Bytes()); err != nil {
				return fail("table to rank %d: %w", r, err)
			}
		}
		return t, nil
	}

	// Non-zero ranks: announce, then wait for the table. Data that eager
	// peers send meanwhile waits in the mailbox.
	coord := nexus.Addr("tcp://" + strings.TrimPrefix(coordAddr, "tcp://"))
	for {
		err := t.send(coord, tagJoin, []byte(ep.Addr()))
		if err == nil {
			break
		}
		if left() <= 0 {
			return fail("cannot reach coordinator: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	m, ok := RecvTimeout(t, 0, tagTable, left())
	if !ok {
		return fail("timed out waiting for rank table")
	}
	d := cdr.NewDecoder(m.Data)
	if n := d.GetSeqLen(4); n != size {
		return fail("table of %d for size %d", n, size)
	}
	for i := range t.table {
		t.table[i] = nexus.Addr(d.GetString())
	}
	if err := d.Err(); err != nil {
		return fail("%w", err)
	}
	return t, nil
}

// Close releases the transport endpoint.
func (t *TCPThread) Close() error { return t.ep.Close() }
