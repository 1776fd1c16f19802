package nexus

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// The TCP fabric multiplexes logical endpoints ("channels") over shared
// physical connections: a TCPTransport owns one listener and at most one
// socket per peer transport, and every channel created from it — client
// bindings, server threads, helper endpoints — rides those sockets. This is
// what lets a PARDIS server face 10⁵ concurrent client channels with a
// handful of file descriptors and reader goroutines instead of one of each
// per client (DESIGN.md §12).
//
// Wire format, per frame:
//
//	[4B length][4B dst channel][4B src channel][payload]
//
// where length covers the two channel words plus the payload. The first
// frame on a dialed connection is a hello (dst=src=0) whose payload is the
// dialer's transport address; it names the connection so the acceptor can
// route frames back over it.

// maxFrame bounds a single frame to keep a corrupt length prefix from
// allocating unbounded memory.
const maxFrame = 1 << 28 // 256 MiB

// maxHello bounds the first frame of an accepted connection, which is still
// anonymous: whoever connected may announce any length, and the frame is
// allocated before a byte of it arrives. A hello carries a transport address
// (under 300 bytes); a named connection's frames are bounded by maxFrame.
const maxHello = 1 << 10

// muxHdrLen is the per-frame channel-addressing overhead (dst + src words).
const muxHdrLen = 8

// TCPDialTimeout bounds connection establishment to a peer. Without it a
// dial to a partitioned host blocks the sending thread for the kernel's
// SYN-retry budget (minutes), far past any invocation deadline.
var TCPDialTimeout = 10 * time.Second

// TCPHelloTimeout bounds the wait for the identifying hello frame on an
// accepted connection. A dialer that connects and then goes silent would
// otherwise pin a reader goroutine (and its connection) forever — accepted
// connections are anonymous until the hello names them, so nothing else
// could ever clean them up.
var TCPHelloTimeout = 10 * time.Second

// TCPCoalesceLimit is the largest wire size (header + payload) that takes
// the copying small-frame path through the connection's write combiner;
// larger frames go straight to a vectored write without a copy. A var, not
// a const, so tests can pin either path.
var TCPCoalesceLimit = 4 << 10

// tcpPendCap bounds a connection's pending batch, deferred frames included:
// a sender finding this many bytes already pending waits for the active
// writer to drain before appending, or — no writer being active — appends
// and writes the batch itself (the "buffer-full" flush trigger of DESIGN.md
// §12).
const tcpPendCap = 128 << 10

// tcpCloseFlushTimeout bounds the write of still-pending frames in
// TCPTransport.Close, so a peer that stopped reading cannot hang it.
const tcpCloseFlushTimeout = 5 * time.Second

// NewTCPTransport creates a multiplexing TCP transport listening on the
// given address (""/":0" picks a free loopback port). Endpoints are created
// from it with NewChannel; all of them share the transport's physical
// connections.
func NewTCPTransport(listen string) (*TCPTransport, error) {
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("nexus: %w", err)
	}
	t := &TCPTransport{
		ln:       ln,
		hostport: ln.Addr().String(),
		addr:     Addr("tcp://" + ln.Addr().String()),
		conns:    map[string]*tcpConn{},
		dialing:  map[string]*tcpDial{},
		anon:     map[net.Conn]bool{},
		chans:    map[uint32]*tcpChan{},

		closeFlushTimeout: tcpCloseFlushTimeout,
	}
	go t.acceptLoop()
	return t, nil
}

// NewTCPEndpoint creates a standalone endpoint listening on the given
// address (""/":0" picks a free loopback port): a transport whose default
// channel (id 0, plain tcp://host:port address) is the endpoint, exactly
// the pre-multiplexing shape. Closing the endpoint closes the transport.
func NewTCPEndpoint(listen string) (Endpoint, error) {
	t, err := NewTCPTransport(listen)
	if err != nil {
		return nil, err
	}
	return t.newChan(true), nil
}

// TCPTransport owns one listener and the table of physical connections its
// channels multiplex over.
type TCPTransport struct {
	ln       net.Listener
	hostport string
	addr     Addr
	// closeFlushTimeout is tcpCloseFlushTimeout; a field so a test can
	// shorten it without touching the other transports of its process.
	closeFlushTimeout time.Duration

	mu    sync.Mutex
	conns map[string]*tcpConn // peer transport hostport -> shared connection
	// dialing deduplicates concurrent dials to one peer (singleflight): the
	// first sender dials and completes the entry; the rest wait on done.
	dialing map[string]*tcpDial
	// anon holds accepted connections that have not yet identified
	// themselves with a hello frame, so Close can terminate their reader
	// goroutines too (they are reachable through no other table).
	anon   map[net.Conn]bool
	chans  map[uint32]*tcpChan
	nextID uint32
	closed bool
}

type tcpDial struct {
	done chan struct{} // closed when tc/err are set
	tc   *tcpConn
	err  error
}

// Addr is the transport's own address (equal to its default channel's).
func (t *TCPTransport) Addr() Addr { return t.addr }

// NewChannel creates a logical endpoint multiplexed over the transport's
// shared connections. Its address is tcp://host:port/<id>; frames it sends
// carry that address as the reply route, so any number of channels cost one
// socket per peer, not one each.
func (t *TCPTransport) NewChannel() Endpoint { return t.newChan(false) }

func (t *TCPTransport) newChan(def bool) *tcpChan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id uint32
	if !def {
		t.nextID++
		id = t.nextID
	}
	ch := &tcpChan{t: t, id: id, addr: tcpChanAddr(t.hostport, id), isDefault: def}
	ch.inbox.init()
	ch.closed = t.closed
	if !t.closed {
		t.chans[id] = ch
	}
	return ch
}

// ConnCount reports the number of established physical connections — the
// quantity the fan-in figure and the singleflight tests assert on.
func (t *TCPTransport) ConnCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

func (t *TCPTransport) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.anon[c] = true
		t.mu.Unlock()
		go t.readLoop(c, nil)
	}
}

// readLoop reads frames from one connection and routes them to channels by
// destination id. tc is nil for an accepted connection until its hello
// names the peer.
func (t *TCPTransport) readLoop(c net.Conn, tc *tcpConn) {
	defer c.Close()
	if tc == nil {
		// The hello must arrive within its deadline; the deadline is
		// cleared once the connection has a name and normal traffic may
		// idle indefinitely.
		c.SetReadDeadline(time.Now().Add(TCPHelloTimeout))
	}
	var hdr [4]byte // reused across frames; escapes once per connection
	br := newFrameReader(c)
	for {
		limit := uint32(maxFrame)
		if tc == nil {
			limit = maxHello
		}
		data, buf, err := readFrame(br, &hdr, limit)
		if err != nil || len(data) < muxHdrLen {
			if tc != nil {
				// The deferred c.Close takes the write side down with the
				// read side, so the connection is failed as a whole: senders
				// re-dial, the flusher exits.
				if err == nil {
					err = fmt.Errorf("nexus: short frame from %s", tc.peer)
				}
				t.dropConn(tc.peer, tc, err)
			} else {
				t.mu.Lock()
				delete(t.anon, c)
				t.mu.Unlock()
			}
			return
		}
		tcpBytesIn.Add(uint64(len(hdr) + len(data)))
		dst := binary.BigEndian.Uint32(data[0:4])
		src := binary.BigEndian.Uint32(data[4:8])
		payload := data[muxHdrLen:]
		if tc == nil {
			// Hello: the payload is the dialing transport's address.
			hp, _, herr := splitTCPAddr(Addr(payload))
			if herr != nil {
				t.mu.Lock()
				delete(t.anon, c)
				t.mu.Unlock()
				return
			}
			tc = newTCPConn(t, c, hp)
			c.SetReadDeadline(time.Time{})
			t.mu.Lock()
			delete(t.anon, c)
			if t.closed {
				t.mu.Unlock()
				return
			}
			// A hello naming this transport is its own dial looping back
			// (a channel sending to itself or a sibling): the dialer
			// registers its end. Finding this end registered first, the
			// dialer would close its own and send into the socket it had
			// just closed, losing the frames.
			if _, exists := t.conns[hp]; !exists && hp != t.hostport {
				t.conns[hp] = tc
				tcpConnsLive.Add(1)
			}
			t.mu.Unlock()
			continue
		}
		t.mu.Lock()
		ch := t.chans[dst]
		t.mu.Unlock()
		if ch == nil {
			continue // channel closed or never existed; drop the frame
		}
		ch.push(Frame{From: tc.fromAddr(src), Data: payload, buf: buf})
	}
}

// connTo returns the shared connection to the peer transport at hostport,
// dialing it if absent. Concurrent first-sends to a cold peer are
// singleflighted: exactly one dial happens, the rest wait for its result.
func (t *TCPTransport) connTo(hostport string) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if tc, ok := t.conns[hostport]; ok {
		t.mu.Unlock()
		return tc, nil
	}
	if d, ok := t.dialing[hostport]; ok {
		t.mu.Unlock()
		<-d.done
		return d.tc, d.err
	}
	d := &tcpDial{done: make(chan struct{})}
	t.dialing[hostport] = d
	t.mu.Unlock()

	tc, err := t.dial(hostport)
	t.mu.Lock()
	delete(t.dialing, hostport)
	if err == nil {
		if cur, ok := t.conns[hostport]; ok {
			// Lost a race with an inbound connection from the same peer;
			// use the established one.
			tc.c.Close()
			tc = cur
		} else if t.closed {
			tc.c.Close()
			tc, err = nil, ErrClosed
		} else {
			t.conns[hostport] = tc
			tcpConnsLive.Add(1)
			go t.readLoop(tc.c, tc)
		}
	}
	d.tc, d.err = tc, err
	t.mu.Unlock()
	close(d.done)
	return tc, err
}

// dial opens and names a connection to the peer transport at hostport.
func (t *TCPTransport) dial(hostport string) (*tcpConn, error) {
	c, err := net.DialTimeout("tcp", hostport, TCPDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: tcp://%s: %v", ErrNoRoute, hostport, err)
	}
	tc := newTCPConn(t, c, hostport)
	// Hello: announce our transport address so the peer can route frames
	// for any of our channels over this connection.
	if err := tc.sendFrame(0, 0, [][]byte{[]byte(t.addr)}, false); err != nil {
		c.Close()
		return nil, fmt.Errorf("nexus: hello to %s: %w", hostport, err)
	}
	return tc, nil
}

// dropConn removes a failed connection — a write by a sender or the flusher
// failed, or its reader saw the peer go — so the next send re-dials.
func (t *TCPTransport) dropConn(hostport string, tc *tcpConn, cause error) {
	t.mu.Lock()
	if cur, ok := t.conns[hostport]; ok && cur == tc {
		delete(t.conns, hostport)
		tcpConnsLive.Add(-1)
	}
	t.mu.Unlock()
	tc.fail(cause)
}

func (t *TCPTransport) dropChan(id uint32, ch *tcpChan) {
	t.mu.Lock()
	if cur, ok := t.chans[id]; ok && cur == ch {
		delete(t.chans, id)
	}
	t.mu.Unlock()
}

// Close shuts the listener, every connection, and every remaining channel.
// Frames that deferred sends accepted are written first — a program that
// sends and then closes has sent — with the whole drain bounded by
// closeFlushTimeout, so a peer that stopped reading cannot hang Close.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[string]*tcpConn{}
	anon := t.anon
	t.anon = map[net.Conn]bool{}
	chans := t.chans
	t.chans = map[uint32]*tcpChan{}
	tcpConnsLive.Add(-int64(len(conns)))
	t.mu.Unlock()
	t.ln.Close()
	deadline := time.Now().Add(t.closeFlushTimeout)
	for _, tc := range conns {
		tc.c.SetWriteDeadline(deadline)
	}
	for _, tc := range conns {
		tc.flushAndFail(ErrClosed)
	}
	for c := range anon {
		c.Close()
	}
	for _, ch := range chans {
		ch.shut()
	}
	return nil
}

// tcpChanAddr renders a channel address. The default channel keeps the
// plain transport address, so pre-multiplexing peers (and the bootstrap
// protocol, which dials "tcp://host:port") interoperate unchanged.
func tcpChanAddr(hostport string, id uint32) Addr {
	if id == 0 {
		return Addr("tcp://" + hostport)
	}
	return Addr(fmt.Sprintf("tcp://%s/%d", hostport, id))
}

// splitTCPAddr parses tcp://host:port[/channel].
func splitTCPAddr(to Addr) (hostport string, id uint32, err error) {
	rest, ok := strings.CutPrefix(string(to), "tcp://")
	if !ok {
		return "", 0, fmt.Errorf("%w: %s is not a tcp address", ErrNoRoute, to)
	}
	i := strings.LastIndexByte(rest, '/')
	if i < 0 {
		return rest, 0, nil
	}
	// Decimal parse by hand: the send fast path must not allocate, and
	// strconv's error paths do.
	var n uint64
	s := rest[i+1:]
	if len(s) == 0 {
		return "", 0, fmt.Errorf("%w: %s: empty channel id", ErrNoRoute, to)
	}
	for j := 0; j < len(s); j++ {
		c := s[j]
		if c < '0' || c > '9' {
			return "", 0, fmt.Errorf("%w: %s: bad channel id", ErrNoRoute, to)
		}
		n = n*10 + uint64(c-'0')
		if n > 1<<32-1 {
			return "", 0, fmt.Errorf("%w: %s: channel id overflow", ErrNoRoute, to)
		}
	}
	return rest[:i], uint32(n), nil
}

// --- Logical channel ---------------------------------------------------------

// tcpChan is one logical endpoint: an inbox (filled by the connections'
// reader goroutines) plus a channel id. All sends go through the owning
// transport's shared connections.
type tcpChan struct {
	inbox
	t         *TCPTransport
	id        uint32
	addr      Addr
	isDefault bool
}

func (e *tcpChan) Addr() Addr { return e.addr }

// Transport exposes the owning transport (for connection-count assertions).
func (e *tcpChan) Transport() *TCPTransport { return e.t }

// ConcurrentSendSafe implements ConcurrentSender: the write combiner
// serializes frame writes per connection, and the connection table is
// mutex-protected.
func (e *tcpChan) ConcurrentSendSafe() bool { return true }

func (e *tcpChan) Send(to Addr, data []byte) error {
	return e.SendV(to, data)
}

func (e *tcpChan) SendV(to Addr, bufs ...[]byte) error {
	// A non-empty inbox means the owner has input to process and will send
	// again before it can block: observation (a) of the flush policy.
	closed, busy := e.state()
	if closed {
		return ErrClosed
	}
	hostport, dst, err := splitTCPAddr(to)
	if err != nil {
		return err
	}
	tc, err := e.t.connTo(hostport)
	if err != nil {
		return err
	}
	if err := tc.sendFrame(dst, e.id, bufs, busy); err != nil {
		// Connection died; drop it so a retry re-dials.
		e.t.dropConn(hostport, tc, err)
		return fmt.Errorf("nexus: send to %s: %w", to, err)
	}
	return nil
}

// Close releases the channel. Closing the default channel (a standalone
// NewTCPEndpoint) closes the whole transport; closing a NewChannel endpoint
// releases only its id — the shared connections stay up for its siblings.
func (e *tcpChan) Close() error {
	e.shut()
	e.t.dropChan(e.id, e)
	if e.isDefault {
		return e.t.Close()
	}
	return nil
}

// --- Shared connection and its write combiner --------------------------------

// tcpConn is one physical connection with its write combiner. Small frames
// from any number of channels are copied into pend and reach the socket in
// as few writes as the traffic allows; large frames bypass the copy with a
// vectored write. Exactly one goroutine at a time holds the writer role
// (writing == true) and it alone touches the socket's write side.
//
// Who writes a small frame (DESIGN.md §12):
//
//   - its sender, before sendFrame returns, when the writer role is free
//     and nothing says more frames are on their way — the lone-frame path,
//     which never waits for a timer or for another goroutine;
//   - the active writer, when there is one: it drains pend until it is
//     empty before it gives the role up;
//   - whoever flushes next, when the frame is deferred: the sender leaves
//     it in pend and returns. Two observations defer a frame — (a) the
//     sending channel's inbox is non-empty, so its owner will send again
//     before it can block; (b) the previous flush carried more than one
//     frame, so senders are already outrunning one write per frame. Either
//     may be wrong; that costs one goroutine hand-off, never delivery:
//     every deferral with the role free wakes the connection's flusher
//     goroutine, so no deferred frame depends on anyone calling the
//     transport again.
type tcpConn struct {
	t    *TCPTransport // owner, for the flusher's dropConn; nil on a bare test connection
	c    net.Conn
	peer string // peer transport hostport

	mu   sync.Mutex
	cond *sync.Cond
	// pend accumulates framed small sends awaiting a writer; spare is the
	// drained buffer from the previous flush, ping-ponged back to avoid
	// reallocating.
	pend    []byte
	spare   []byte
	pendN   int    // frames currently in pend
	lastN   int    // frames the previous small-frame flush carried: observation (b)
	writing bool   // a flush (batched or large-frame) is on the wire
	enq     uint64 // cumulative bytes appended to pend
	wr      uint64 // cumulative pend bytes flushed to the socket
	err     error  // sticky: first failure fails all senders and ends the flusher

	// kick wakes the flusher goroutine; nil until the first deferred frame
	// starts it, so a connection that never defers has no flusher.
	kick chan struct{}

	// Large-frame scratch, owned by the active writer: the header buffer,
	// the assembled buffer list, and the net.Buffers handed to writev.
	// Reusing them keeps a framed send allocation-free no matter how many
	// payload buffers it carries. iov is a field (not a local) because
	// WriteTo's pointer receiver would force a local header to escape.
	hdr   [4 + muxHdrLen]byte
	wbufs [][]byte
	iov   net.Buffers

	// fromCache interns From addresses per source channel; only the
	// connection's reader goroutine touches it.
	fromCache map[uint32]Addr
}

func newTCPConn(t *TCPTransport, c net.Conn, peer string) *tcpConn {
	tc := &tcpConn{t: t, c: c, peer: peer}
	tc.cond = sync.NewCond(&tc.mu)
	return tc
}

// fromAddr returns the interned address of the peer's channel src
// (reader goroutine only).
func (tc *tcpConn) fromAddr(src uint32) Addr {
	if a, ok := tc.fromCache[src]; ok {
		return a
	}
	a := tcpChanAddr(tc.peer, src)
	if tc.fromCache == nil {
		tc.fromCache = map[uint32]Addr{}
	}
	tc.fromCache[src] = a
	return a
}

// sendFrame sends one frame addressed dst<-src; busy is observation (a),
// the sending channel's inbox being non-empty. A nil return means the
// frame's bytes have been handed to the socket — or, for a deferred small
// frame, copied into pend for the next flush; a later write failure then
// loses it with the connection, as it would lose bytes already in the
// kernel's send buffer. Either way bufs are not retained.
func (tc *tcpConn) sendFrame(dst, src uint32, bufs [][]byte, busy bool) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	wire := 4 + muxHdrLen + n
	tc.mu.Lock()
	if tc.err != nil {
		err := tc.err
		tc.mu.Unlock()
		return err
	}
	if wire <= TCPCoalesceLimit {
		// Buffer-full backpressure: while a flush is on the wire and the
		// pending batch is at capacity, wait for the writer to drain.
		for tc.writing && len(tc.pend) >= tcpPendCap {
			tc.cond.Wait()
			if tc.err != nil {
				err := tc.err
				tc.mu.Unlock()
				return err
			}
		}
		var h [4 + muxHdrLen]byte
		binary.BigEndian.PutUint32(h[0:4], uint32(muxHdrLen+n))
		binary.BigEndian.PutUint32(h[4:8], dst)
		binary.BigEndian.PutUint32(h[8:12], src)
		tc.pend = append(tc.pend, h[:]...)
		for _, b := range bufs {
			tc.pend = append(tc.pend, b...)
		}
		tc.pendN++
		tc.enq += uint64(wire)
		mark := tc.enq
		// Defer when more frames are expected, unless pend is at its cap
		// with nobody writing — then this sender takes the batch out.
		if (busy || tc.lastN > 1) && (tc.writing || len(tc.pend) < tcpPendCap) {
			if !tc.writing {
				tc.wakeFlusher()
			}
			tc.mu.Unlock()
			tcpDeferredFrames.Inc()
			return nil
		}
		if tc.writing {
			// The active writer will flush these bytes; wait until it has
			// so errors surface synchronously. Once they are written the
			// send has succeeded, whatever fails the connection next.
			for tc.wr < mark && tc.err == nil {
				tc.cond.Wait()
			}
			var err error
			if tc.wr < mark {
				err = tc.err
			}
			tc.mu.Unlock()
			return err
		}
		// Writer is idle: flush now — a lone frame never waits. Deferred
		// frames still in pend leave with it, ahead of it.
		tc.writing = true
		err := tc.drainLocked()
		tc.mu.Unlock()
		return err
	}

	// Large frame: take the writer role and hand the caller's buffers to
	// writev without copying. Deferred frames may be sitting in pend with
	// the role free; they were enqueued first, so they leave first.
	for tc.writing {
		tc.cond.Wait()
		if tc.err != nil {
			err := tc.err
			tc.mu.Unlock()
			return err
		}
	}
	tc.writing = true
	if err := tc.flushLocked(); err != nil {
		tc.writing = false
		tc.cond.Broadcast()
		tc.mu.Unlock()
		return err
	}
	binary.BigEndian.PutUint32(tc.hdr[0:4], uint32(muxHdrLen+n))
	binary.BigEndian.PutUint32(tc.hdr[4:8], dst)
	binary.BigEndian.PutUint32(tc.hdr[8:12], src)
	tc.wbufs = append(tc.wbufs[:0], tc.hdr[:])
	for _, b := range bufs {
		if len(b) > 0 {
			tc.wbufs = append(tc.wbufs, b)
		}
	}
	tc.mu.Unlock()
	// WriteTo consumes (advances and nils) the header it is invoked on, so
	// hand it a throwaway copy of the scratch header: tc.wbufs keeps its
	// capacity, and the nil'd backing entries drop payload references.
	tc.iov = net.Buffers(tc.wbufs)
	_, werr := tc.iov.WriteTo(tc.c)
	tc.mu.Lock()
	tcpBytesOut.Add(uint64(wire))
	if werr != nil && tc.err == nil {
		tc.err = werr
	}
	// Drain whatever coalesced behind this write before releasing the
	// writer role, so small frames never starve behind a large sender.
	err := tc.drainLocked()
	tc.mu.Unlock()
	if werr != nil {
		return werr
	}
	return err
}

// flushLocked writes the pending batch until it is empty or the connection
// has failed. Caller holds tc.mu and the writer role; the lock is dropped
// around each socket write so senders keep coalescing into the next batch
// while the current one is on the wire. The error is nil when everything
// pending was handed to the socket — even if the connection has been failed
// since (a peer may close the moment it has read our last frame, and its
// reader-side EOF must not turn a completed send into an error).
func (tc *tcpConn) flushLocked() error {
	for tc.err == nil && len(tc.pend) > 0 {
		batch := tc.pend
		batchN := tc.pendN
		tc.pend = tc.spare[:0]
		tc.pendN = 0
		tc.mu.Unlock()
		_, werr := tc.c.Write(batch)
		tc.mu.Lock()
		tc.spare = batch[:0] // ping-pong the drained buffer back
		tc.lastN = batchN
		tcpBytesOut.Add(uint64(len(batch)))
		tcpFlushes.Inc()
		if batchN > 1 {
			tcpCoalescedFlushes.Inc()
			tcpCoalescedFrames.Add(uint64(batchN))
		}
		if werr != nil {
			// wr stays put: senders waiting on these bytes see the error.
			if tc.err == nil {
				tc.err = werr
			}
			tc.cond.Broadcast()
			return werr
		}
		tc.wr += uint64(len(batch))
		tc.cond.Broadcast()
	}
	if len(tc.pend) > 0 {
		return tc.err // failed by someone else with frames still unwritten
	}
	return nil
}

// drainLocked is flushLocked followed by release of the writer role.
func (tc *tcpConn) drainLocked() error {
	err := tc.flushLocked()
	tc.writing = false
	tc.cond.Broadcast()
	return err
}

// wakeFlusher hands the pending batch to the connection's flusher
// goroutine, starting it on first use. Caller holds tc.mu. The 1-slot
// channel makes the wake-up sticky: a kick sent while the flusher is busy
// is seen on its next turn, and further kicks before then are dropped.
func (tc *tcpConn) wakeFlusher() {
	if tc.kick == nil {
		tc.kick = make(chan struct{}, 1)
		go tc.flushLoop()
	}
	select {
	case tc.kick <- struct{}{}:
	default:
	}
}

// flushLoop is the flusher goroutine: on each kick it writes whatever is
// pending unless a writer is active (which will). It ends when the
// connection has failed — by its own write, a sender's, the reader's, or
// Close — and, like a failing sender, drops the connection so that the next
// send re-dials.
func (tc *tcpConn) flushLoop() {
	for range tc.kick {
		tc.mu.Lock()
		if !tc.writing {
			tc.writing = true
			tc.drainLocked()
		}
		err := tc.err
		tc.mu.Unlock()
		if err != nil {
			if tc.t != nil {
				tc.t.dropConn(tc.peer, tc, err)
			}
			return
		}
	}
}

// fail marks the connection dead: the sticky error stops further sends and
// wakes everyone parked on the connection — the flusher, which exits, and,
// by closing the socket, the reader and any writer blocked in it.
func (tc *tcpConn) fail(cause error) {
	tc.mu.Lock()
	if tc.err == nil {
		tc.err = cause
	}
	if tc.kick != nil {
		tc.wakeFlusher()
	}
	tc.cond.Broadcast()
	tc.mu.Unlock()
	tc.c.Close()
}

// flushAndFail is fail for an orderly Close: what deferred sends accepted
// is written first, by taking the writer role or waiting out the active
// writer. The caller has bounded the writes with a deadline.
func (tc *tcpConn) flushAndFail(cause error) {
	tc.mu.Lock()
	for tc.err == nil && (tc.writing || len(tc.pend) > 0) {
		if tc.writing {
			tc.cond.Wait()
			continue
		}
		tc.writing = true
		tc.drainLocked()
	}
	tc.mu.Unlock()
	tc.fail(cause)
}

// tcpReadBuf is the per-connection read buffer: the size of the largest
// frame the peer's write combiner coalesces (TCPCoalesceLimit's default), so
// a batch of small frames arrives in one read instead of two per frame.
// Kept that small on purpose — it is resident per connection.
const tcpReadBuf = 4 << 10

// newFrameReader wraps a connection for readFrame. bufio reads a frame
// body larger than the buffer straight into its destination once the
// buffered prefix is consumed, so large frames are still not copied twice.
func newFrameReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, tcpReadBuf) }

// readFrame reads one length-prefixed frame of at most limit bytes into a
// buffer of its own, never one that aliases the read buffer: a pooled buffer
// (returned as buf, for the Frame to carry) when the frame is small, a
// freshly allocated one the receiver keeps for good otherwise (DESIGN.md
// §7). A longer frame is rejected before anything is allocated for it.
func readFrame(r io.Reader, hdr *[4]byte, limit uint32) (data []byte, buf *frameBuf, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, nil, fmt.Errorf("nexus: frame of %d bytes exceeds limit", n)
	}
	data, buf = frameBytes(int(n))
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, nil, err
	}
	return data, buf, nil
}
