package rts

import (
	"errors"
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

// Bootstrap frame types; data frames are msgData.
const (
	tcpMsgJoin  byte = 1
	tcpMsgTable byte = 2
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
	t := &TCPThread{epThread{host: hostName, rank: rank, size: size, start: time.Now(), ep: ep}}
	deadline := time.Now().Add(timeout)

	// A failed bootstrap must release the endpoint. Receives poll from this
	// goroutine (nexus.RecvTimeout), so no helper is left parked in Recv to
	// steal a later frame.
	fail := func(err error) (*TCPThread, error) {
		ep.Close()
		return nil, err
	}

	if rank == 0 {
		table := make([]nexus.Addr, size)
		table[0] = ep.Addr()
		for joined := 1; joined < size; {
			// The deadline bounds the blocking receive itself: a rank
			// that never joins may otherwise leave no traffic at all, and
			// a deadline checked only after a successful Recv would hang
			// bootstrap forever.
			fr, err := nexus.RecvTimeout(ep, deadline)
			if err != nil {
				if errors.Is(err, nexus.ErrRecvTimeout) {
					return fail(fmt.Errorf("rts: bootstrap timed out with %d/%d ranks", joined, size))
				}
				return fail(fmt.Errorf("rts: bootstrap: %w", err))
			}
			d := cdr.NewDecoder(fr.Data)
			if d.GetOctet() != tcpMsgJoin {
				continue
			}
			r := int(d.GetLong())
			addr := d.GetString()
			if d.Err() != nil || r <= 0 || r >= size {
				return fail(fmt.Errorf("rts: bootstrap: bad join from %s", fr.From))
			}
			if table[r] == "" {
				joined++
			}
			table[r] = nexus.Addr(addr)
		}
		e := cdr.NewEncoder(64)
		e.PutOctet(tcpMsgTable)
		e.PutSeqLen(size)
		for _, a := range table {
			e.PutString(string(a))
		}
		for r := 1; r < size; r++ {
			if err := ep.Send(table[r], e.Bytes()); err != nil {
				return fail(fmt.Errorf("rts: bootstrap: table to rank %d: %w", r, err))
			}
		}
		t.table = table
		return t, nil
	}

	// Non-zero ranks: announce, then wait for the table.
	join := cdr.NewEncoder(64)
	join.PutOctet(tcpMsgJoin)
	join.PutLong(int32(rank))
	join.PutString(string(ep.Addr()))
	coord := nexus.Addr("tcp://" + strings.TrimPrefix(coordAddr, "tcp://"))
	var sendErr error
	for {
		sendErr = ep.Send(coord, join.Bytes())
		if sendErr == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("rts: bootstrap: cannot reach coordinator: %w", sendErr))
		}
		time.Sleep(50 * time.Millisecond)
	}
	for {
		fr, err := nexus.RecvTimeout(ep, deadline)
		if err != nil {
			if errors.Is(err, nexus.ErrRecvTimeout) {
				return fail(fmt.Errorf("rts: bootstrap timed out waiting for rank table"))
			}
			return fail(fmt.Errorf("rts: bootstrap: %w", err))
		}
		d := cdr.NewDecoder(fr.Data)
		if d.GetOctet() != tcpMsgTable {
			t.stash(fr.Data) // early data from eager peers
			continue
		}
		n := d.GetSeqLen(4)
		if n != size {
			return fail(fmt.Errorf("rts: bootstrap: table of %d for size %d", n, size))
		}
		t.table = make([]nexus.Addr, size)
		for i := range t.table {
			t.table[i] = nexus.Addr(d.GetString())
		}
		if err := d.Err(); err != nil {
			return fail(fmt.Errorf("rts: bootstrap: %w", err))
		}
		return t, nil
	}
}

// Close releases the transport endpoint.
func (t *TCPThread) Close() error { return t.ep.Close() }
