package rts

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/nexus"
)

// TCPThread is the distributed RTS backend: the computing threads of one
// parallel program live in genuinely distinct address spaces (separate OS
// processes, or separate endpoints at least) and exchange messages over
// TCP. It is the closest analog of the paper's MPI deployment.
//
// Bootstrap: rank 0 listens at a well-known address (the "machinefile"
// role); other ranks dial it, announce themselves, and receive the full
// rank->address table once everyone has joined.
//
// TCPThread does not implement the optional Window capability — with truly
// separate address spaces there is no shared store, so DSeq.At on remote
// elements is unavailable, exactly the functionality restriction the paper
// accepts for minimal two-sided run-time systems.
type TCPThread struct {
	host  string
	rank  int
	size  int
	start time.Time
	ep    nexus.Endpoint
	table []string // rank -> endpoint address

	mu      sync.Mutex
	pending []Message // received but not yet matched
}

var _ Thread = (*TCPThread)(nil)

const (
	tcpMsgJoin  byte = 1
	tcpMsgTable byte = 2
	tcpMsgData  byte = 3
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
	t := &TCPThread{host: hostName, rank: rank, size: size, start: time.Now(), ep: ep}
	deadline := time.Now().Add(timeout)

	// A failed bootstrap must release the endpoint (and with it any
	// receiver goroutine parked in recvDeadline).
	fail := func(err error) (*TCPThread, error) {
		ep.Close()
		return nil, err
	}

	if rank == 0 {
		table := make([]string, size)
		table[0] = string(ep.Addr())
		for joined := 1; joined < size; {
			// The deadline bounds the blocking receive itself: a rank
			// that never joins may otherwise leave no traffic at all, and
			// a deadline checked only after a successful Recv would hang
			// bootstrap forever.
			fr, err := recvDeadline(ep, deadline)
			if err != nil {
				if errors.Is(err, errRecvTimeout) {
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
			table[r] = addr
		}
		e := cdr.NewEncoder(64)
		e.PutOctet(tcpMsgTable)
		e.PutSeqLen(size)
		for _, a := range table {
			e.PutString(a)
		}
		for r := 1; r < size; r++ {
			if err := ep.Send(nexus.Addr(table[r]), e.Bytes()); err != nil {
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
		fr, err := recvDeadline(ep, deadline)
		if err != nil {
			if errors.Is(err, errRecvTimeout) {
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
		t.table = make([]string, size)
		for i := range t.table {
			t.table[i] = d.GetString()
		}
		if err := d.Err(); err != nil {
			return fail(fmt.Errorf("rts: bootstrap: %w", err))
		}
		return t, nil
	}
}

// errRecvTimeout distinguishes a bootstrap deadline from transport failure.
var errRecvTimeout = errors.New("rts: receive deadline exceeded")

// recvDeadline blocks for one frame or the deadline, whichever comes first.
// It polls from the calling thread (nexus.RecvTimeout) rather than parking a
// helper goroutine in Recv: the goroutine variant retired its receiver only
// when the endpoint was closed, and on the success path each bootstrap step
// left a window where an abandoned receiver could steal the next frame.
func recvDeadline(ep nexus.Endpoint, deadline time.Time) (nexus.Frame, error) {
	fr, err := nexus.RecvTimeout(ep, deadline)
	if errors.Is(err, nexus.ErrRecvTimeout) {
		return nexus.Frame{}, errRecvTimeout
	}
	return fr, err
}

// stash decodes and queues a data frame that arrived before it was wanted.
// The queued Message's Data aliases the frame: the transport allocated the
// frame exclusively for this receive, so handing it on (rather than copying
// into fresh scratch) transfers ownership to the consumer for free.
func (t *TCPThread) stash(frame []byte) {
	d := cdr.NewDecoder(frame)
	if d.GetOctet() != tcpMsgData {
		return
	}
	src := int(d.GetLong())
	tag := Tag(d.GetULong())
	data := d.GetOctets()
	if d.Err() != nil {
		return
	}
	t.mu.Lock()
	t.pending = append(t.pending, Message{Src: src, Tag: tag, Data: data})
	t.mu.Unlock()
}

// Rank implements Comm.
func (t *TCPThread) Rank() int { return t.rank }

// Size implements Comm.
func (t *TCPThread) Size() int { return t.size }

// HostName implements Thread.
func (t *TCPThread) HostName() string { return t.host }

// Compute implements Thread (no-op: real work happens for real).
func (t *TCPThread) Compute(float64) {}

// Sleep implements Thread.
func (t *TCPThread) Sleep(seconds float64) {
	time.Sleep(time.Duration(seconds * float64(time.Second)))
}

// Elapsed implements Thread.
func (t *TCPThread) Elapsed() float64 { return time.Since(t.start).Seconds() }

// Endpoint exposes the thread's RTS transport endpoint. Note that unlike
// the in-process backends, a PARDIS server on this backend gives its ORB a
// *separate* TCP endpoint: RTS data frames and pgiop frames are distinct
// protocols, and each receive loop owns its own port.
func (t *TCPThread) Endpoint() nexus.Endpoint { return t.ep }

// Send implements Comm. The payload is never copied into the frame: a small
// pooled header (type, rank, tag, length prefix) and the caller's payload go
// out as one vectored send.
// SendCopies implements rts.SendCopier: Send below serializes data through
// the endpoint's vectored write before returning, so callers may recycle
// their buffer immediately.
func (t *TCPThread) SendCopies() bool { return true }

func (t *TCPThread) Send(dst int, tag Tag, data []byte) {
	CheckRank(t, dst)
	e := cdr.GetEncoder(16)
	e.PutOctet(tcpMsgData)
	e.PutLong(int32(t.rank))
	e.PutULong(uint32(tag))
	e.PutSeqLen(len(data)) // header ends with the PutOctets length prefix
	err := t.ep.SendV(nexus.Addr(t.table[dst]), e.Bytes(), data)
	e.Release()
	if err != nil {
		// The RTS contract has no error path for sends (matching MPI's
		// reliable-delivery model); a dead peer is fatal to the program.
		panic(fmt.Sprintf("rts: send to rank %d: %v", dst, err))
	}
}

// Recv implements Comm.
func (t *TCPThread) Recv(src int, tag Tag) Message {
	for {
		t.mu.Lock()
		for i, m := range t.pending {
			if match(m, src, tag) {
				t.pending = append(t.pending[:i:i], t.pending[i+1:]...)
				t.mu.Unlock()
				return m
			}
		}
		t.mu.Unlock()
		fr, err := t.ep.Recv()
		if err != nil {
			panic(fmt.Sprintf("rts: recv: %v", err))
		}
		t.stash(fr.Data)
	}
}

// Probe implements Comm.
func (t *TCPThread) Probe(src int, tag Tag) bool {
	// Drain anything already delivered to the transport.
	for {
		fr, ok, err := t.ep.Poll()
		if err != nil || !ok {
			break
		}
		t.stash(fr.Data)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.pending {
		if match(m, src, tag) {
			return true
		}
	}
	return false
}

// Barrier implements Comm (dissemination over Send/Recv, shared with the
// chan and sim backends).
func (t *TCPThread) Barrier() { runBarrier(t) }

// Close releases the transport endpoint.
func (t *TCPThread) Close() error { return t.ep.Close() }
