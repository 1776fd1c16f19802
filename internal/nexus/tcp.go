package nexus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The TCP fabric multiplexes logical endpoints ("channels") over shared
// physical connections: a TCPTransport owns one listener and at most one
// socket per peer transport, which every channel created from it rides, so
// a server faces 10⁵ client channels with a handful of descriptors and
// reader goroutines (DESIGN.md §12). A transport with one channel and one
// connection has no reader goroutine: the channel's owner reads the
// connection itself (readrole.go).
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

// maxHello bounds the first frame of an accepted, still anonymous
// connection: a hello carries a transport address, under 300 bytes.
const maxHello = 1 << 10

// muxHdrLen is the per-frame channel-addressing overhead (dst + src words).
const muxHdrLen = 8

// TCPDialTimeout bounds connection establishment to a peer, which the
// kernel's SYN retries would stretch to minutes.
const TCPDialTimeout = 10 * time.Second

// TCPHelloTimeout bounds the wait for the hello that names an accepted
// connection, so a silent dialer cannot pin its reader goroutine forever.
const TCPHelloTimeout = 10 * time.Second

// TCPCoalesceLimit is the largest wire size (header + payload) that takes
// the copying small-frame path through the connection's write combiner;
// larger frames go straight to a vectored write without a copy.
const TCPCoalesceLimit = 4 << 10

// tcpPendCap bounds a connection's pending batch, deferred frames included:
// a sender finding it full waits for the active writer, or with none active
// writes the batch itself (the "buffer-full" trigger of DESIGN.md §12).
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
	// The read role's transport half (readrole.go): whether the transport
	// reads in place never again, and the connection it reads in place, if
	// any, stored under mu and roleMu, loaded anywhere.
	shared bool
	solo   atomic.Pointer[tcpConn]
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
	if len(t.chans) > 0 {
		t.changeLocked(nil, evChannel)
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
		if len(t.conns)+len(t.anon) > 1 {
			t.changeLocked(nil, evConn)
		}
		t.mu.Unlock()
		go t.readLoop(c, nil)
	}
}

// readLoop is a connection's reader goroutine: it routes frames to
// channels by destination id. tc is nil for an accepted connection until its
// hello names it, and the goroutine ends if the owner is to read it in
// place; one handed over (actSpawn) reads on with the owner's frame reader.
func (t *TCPTransport) readLoop(c net.Conn, tc *tcpConn) {
	if tc == nil {
		var placed bool
		if tc, placed = t.hello(c); tc == nil || placed {
			return
		}
	}
	defer c.Close()
	c.SetReadDeadline(time.Time{})
	for {
		data, buf, err := tc.rd.next(maxFrame)
		if isTimeout(err) { // an interrupt meant for the owner's read
			c.SetReadDeadline(time.Time{})
			continue
		}
		var ch *tcpChan
		var fr Frame
		if err == nil {
			ch, fr, err = t.route(tc, data, buf)
		}
		if err != nil { // senders re-dial, the flusher exits
			t.dropConn(tc.peer, tc, err)
			return
		}
		if ch != nil {
			ch.push(fr)
		}
	}
}

// hello reads the first frame of an accepted connection, within
// TCPHelloTimeout, and names the connection by the transport address it
// carries. It returns nil, having closed c, when the hello is missing or
// malformed; placed reports that the connection is to be read in place.
func (t *TCPTransport) hello(c net.Conn) (tc *tcpConn, placed bool) {
	c.SetReadDeadline(time.Now().Add(TCPHelloTimeout))
	rd := newFrameReader(c)
	data, _, err := rd.next(maxHello)
	var hp string
	if err == nil && len(data) < muxHdrLen {
		err = errShortFrame
	}
	if err == nil {
		tcpBytesIn.Add(uint64(4 + len(data)))
		hp, _, err = splitTCPAddr(Addr(data[muxHdrLen:]))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.anon, c)
	if err != nil || t.closed {
		c.Close()
		return nil, false
	}
	c.SetReadDeadline(time.Time{})
	tc = newTCPConn(t, c, hp)
	tc.rd = rd
	// A hello naming this transport is its own dial looping back (a channel
	// sending to itself or a sibling): the dialer registers its end. Finding
	// this end registered first, the dialer would close its own and send
	// into the socket it had just closed, losing the frames.
	if _, exists := t.conns[hp]; !exists && hp != t.hostport {
		t.conns[hp] = tc
		tcpConnsLive.Add(1)
		placed = t.placeLocked(tc)
	}
	return tc, placed
}

// errShortFrame fails a connection whose peer sent a frame too short to
// carry the mux header.
var errShortFrame = errors.New("nexus: short frame")

// route parses a frame read off tc: its channel — nil when that is closed
// or never existed, and the frame is dropped — and the frame as received.
// A frame too short for the mux header fails the connection.
func (t *TCPTransport) route(tc *tcpConn, data []byte, buf *frameBuf) (*tcpChan, Frame, error) {
	if len(data) < muxHdrLen {
		return nil, Frame{}, fmt.Errorf("%w from %s", errShortFrame, tc.peer)
	}
	tcpBytesIn.Add(uint64(4 + len(data)))
	dst := binary.BigEndian.Uint32(data[0:4])
	src := binary.BigEndian.Uint32(data[4:8])
	t.mu.Lock()
	ch := t.chans[dst]
	t.mu.Unlock()
	if ch == nil {
		return nil, Frame{}, nil
	}
	return ch, Frame{From: tc.fromAddr(src), Data: data[muxHdrLen:], buf: buf}, nil
}

// placeLocked decides who reads tc, just entered in the table: the owner of
// the transport's one channel (evPlace), reported true, or else a reader
// goroutine. Caller holds t.mu.
func (t *TCPTransport) placeLocked(tc *tcpConn) bool {
	if len(t.conns)+len(t.anon) > 1 {
		t.changeLocked(nil, evConn)
	}
	if len(t.chans) != 1 || tc.rd.src.raw.rc == nil {
		return false
	}
	return t.changeLocked(tc, evPlace)&actSolo != 0
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
	if hostport == t.hostport {
		// A dial to itself (the ORB's cancel wake-up, a sibling channel):
		// frames will arrive on the accepted end, which a goroutine reads.
		t.changeLocked(nil, evConn)
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
			if !t.placeLocked(tc) {
				go t.readLoop(tc.c, tc)
			}
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
	tc.rd = newFrameReader(c)
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
	t.changeLocked(tc, evFail)
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
	t.changeLocked(nil, evFail)
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
// readers) plus a channel id; its sends go through the transport's shared
// connections.
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
	// again before it can block: observation (a) of the flush policy. Bytes
	// the owner's read in place has buffered count as the inbox.
	closed, busy := e.state()
	if closed {
		return ErrClosed
	}
	if tc := e.t.solo.Load(); tc != nil && !busy {
		busy = tc.more.Load()
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
// releases only its id, and the connections stay up for its siblings
// (evClose: a reader goroutine drops what still comes for it).
func (e *tcpChan) Close() error {
	e.shut()
	e.t.dropChan(e.id, e)
	if e.isDefault {
		return e.t.Close()
	}
	e.t.change(evClose)
	return nil
}

// Recv implements Endpoint: the next frame in the inbox, or else, while the
// transport reads in place, the next one off its connection.
func (e *tcpChan) Recv() (Frame, error) {
	for {
		e.mu.Lock()
		if e.qhead != len(e.queue) {
			fr := e.pop()
			e.mu.Unlock()
			return fr, nil
		}
		if e.closed {
			e.mu.Unlock()
			return Frame{}, ErrClosed
		}
		if e.t.solo.Load() == nil {
			// actSolo stores solo before it wakes this wait.
			e.cond.Wait()
			e.mu.Unlock()
			continue
		}
		e.mu.Unlock()
		if fr, res := e.readOwn(false, time.Time{}, nil); res == readMine {
			return fr, nil
		}
	}
}

// Poll implements Endpoint: a frame from the inbox, or else, while the
// transport reads in place, a whole frame that has reached its connection.
// It never waits for one.
func (e *tcpChan) Poll() (Frame, bool, error) {
	if fr, ok, err := e.inbox.Poll(); ok || err != nil {
		return fr, ok, err
	}
	fr, res := e.readOwn(true, time.Time{}, nil)
	return fr, res == readMine, nil
}

// pollQueued is PollQueued's Poll: it reads the connection only for bytes
// the owner's last read in place left buffered.
func (e *tcpChan) pollQueued() (Frame, bool, error) {
	if tc := e.t.solo.Load(); tc != nil && tc.more.Load() {
		return e.Poll()
	}
	return e.inbox.Poll()
}

// SetRecvNotify implements RecvNotifier. A watcher registered this way never
// reads, so the transport stops reading in place (evNotify); a Waiter
// watches through watchRead instead.
func (e *tcpChan) SetRecvNotify(fn func()) bool {
	if fn != nil {
		e.t.change(evNotify)
	}
	return e.inbox.SetRecvNotify(fn)
}

// readWatcher is the package-private hook a Waiter watches an endpoint
// through when it may read the endpoint's connection itself: the TCP
// channel's, forwarded by the wrappers of this package. watchRead registers
// fn as SetRecvNotify does, without ending reads in place, and returns the
// channel to read (nil, from a wrapper over an endpoint without the hook).
type readWatcher interface {
	watchRead(fn func()) (rd *tcpChan, signals bool)
}

func (e *tcpChan) watchRead(fn func()) (*tcpChan, bool) {
	return e, e.inbox.SetRecvNotify(fn)
}

// readResult is what one read in place came to.
type readResult uint8

const (
	readNone    readResult = iota // the transport does not read in place
	readNothing                   // none for this channel: none came, the wait ended, the connection failed
	readMine                      // a frame for this channel, returned
)

// readOwn is the one read in place, by the owner of e, of the connection
// its transport reads in place: Recv's, Poll's (nowait: returns at once when
// no whole frame has arrived) and a Waiter's (ends at at unless at is zero,
// or when a frame reaches another endpoint w watches). While the flusher's
// peek holds the role it yields and retries (actRetry). A read that fails
// fails the connection.
func (e *tcpChan) readOwn(nowait bool, at time.Time, w *Waiter) (Frame, readResult) {
	ev := evBegin
	if w != nil {
		ev = evWait
	}
	var tc *tcpConn
	for {
		if tc = e.t.solo.Load(); tc == nil {
			return Frame{}, readNone
		}
		act := tc.role(ev, w)
		if act&actOwn != 0 {
			break
		}
		if act&actRetry == 0 {
			return Frame{}, readNone
		}
		runtime.Gosched()
	}
	if !nowait { // a poll reads past the deadline (rawReader)
		tc.c.SetReadDeadline(at)
	}
	// Both checks come after the deadline is set (interrupt).
	var data []byte
	var buf *frameBuf
	err := errWouldBlock
	if !w.woken() && tc.rstate.Load() == rdBusy {
		tc.rd.src.nowait = nowait
		data, buf, err = tc.rd.next(maxFrame)
		tc.rd.src.nowait = false
		if nowait && err == errWouldBlock {
			tcpPollsEmpty.Inc()
		}
	}
	w.woken() // a signal that came during the read: its caller probes anyway
	var ch *tcpChan
	var fr Frame
	if err == nil {
		ch, fr, err = tc.t.route(tc, data, buf)
	}
	if err != nil && err != errWouldBlock && !isTimeout(err) {
		tc.t.dropConn(tc.peer, tc, err) // evFail: nobody reads it again
	}
	tc.more.Store(tc.rd.pending())
	tc.role(evEnd, w)
	if err != nil || ch == nil { // no frame, or one for a closed channel
		return Frame{}, readNothing
	}
	tcpReadInPlace.Inc()
	if ch == e {
		return fr, readMine
	}
	ch.push(fr)
	return Frame{}, readNothing
}

// --- Shared connection and its write combiner --------------------------------

// tcpConn is one physical connection with its write combiner. Small frames
// from any number of channels are copied into pend and reach the socket in
// as few writes as the traffic allows; large frames bypass the copy with a
// vectored write. Exactly one goroutine at a time holds the writer role
// (writing == true) and it alone touches the socket's write side.
//
// Who writes a small frame (DESIGN.md §12): its sender, when the writer
// role is free and nothing says more frames are coming (the lone frame
// never waits); else the active writer, which drains pend before it lets
// go; else, for a deferred frame, whoever flushes next — and every deferral
// with the role free wakes the connection's flusher goroutine. A frame is
// deferred on observation (a), the sending channel's inbox is non-empty, or
// (b), the previous flush carried more than one frame.
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

	// Write scratch, owned by the active writer: the large-frame header,
	// the assembled buffer list (a flushed batch is a list of one), and the
	// net.Buffers handed to writev.
	// Reusing them keeps a framed send allocation-free no matter how many
	// payload buffers it carries. iov is a field (not a local) because
	// WriteTo's pointer receiver would force a local header to escape.
	hdr   [4 + muxHdrLen]byte
	wbufs [][]byte
	iov   net.Buffers

	// wraw is the writer role's socket write, which can tell a write that
	// would wait before it waits (writeIov).
	wraw rawWriter

	// The read role (readrole.go). rd and fromCache belong to whoever
	// holds it: a reader goroutine, or — while rstate says the connection
	// is read in place — the owner of the transport's one channel or the
	// flusher's peek. fromCache interns From addresses per source channel,
	// at most fromCacheMax of them.
	rd        *frameReader
	fromCache map[uint32]Addr
	rstate    atomic.Int32
	// more says the owner's last read in place left bytes buffered:
	// observation (a) of the flush policy, read by any sender.
	more atomic.Bool
}

// fromCacheMax bounds a connection's From intern table: a peer may send
// from any number of source ids, and beyond this many (well above the
// fan-in figure's channels per connection) From is formatted each time.
const fromCacheMax = 4096

func newTCPConn(t *TCPTransport, c net.Conn, peer string) *tcpConn {
	tc := &tcpConn{t: t, c: c, peer: peer}
	tc.cond = sync.NewCond(&tc.mu)
	tc.wraw.init(rawConnOf(c))
	return tc
}

// fromAddr returns the interned address of the peer's channel src (holder
// of the read role only).
func (tc *tcpConn) fromAddr(src uint32) Addr {
	if a, ok := tc.fromCache[src]; ok {
		return a
	}
	a := tcpChanAddr(tc.peer, src)
	if tc.fromCache == nil {
		tc.fromCache = map[uint32]Addr{}
	}
	if len(tc.fromCache) < fromCacheMax {
		tc.fromCache[src] = a
	}
	return a
}

// writeIov writes the buffers in tc.iov, consuming them, in vectored
// writes. A write that finds the send buffer full is counted while it waits
// (evWriteWait), which first shares every transport read in place: a thread
// blocked in a write then never owns the only reader of a connection, so two
// endpoints flooding each other cannot deadlock. A connection without
// descriptor access (a test double) is written as a plain net.Conn.
func (tc *tcpConn) writeIov() error {
	if tc.wraw.rc == nil {
		_, err := tc.iov.WriteTo(tc.c)
		return err
	}
	if err := tc.wraw.writev(&tc.iov, false); err != errWouldBlock {
		return err
	}
	writeWaits(evWriteWait)
	err := tc.wraw.writev(&tc.iov, true)
	writeWaits(evWriteDone)
	return err
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
	werr := tc.writeIov()
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
		tc.wbufs = append(tc.wbufs[:0], batch)
		tc.iov = net.Buffers(tc.wbufs)
		werr := tc.writeIov()
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
		if err == nil {
			tc.peek()
		}
		tc.mu.Lock()
		err = tc.err
		tc.mu.Unlock()
		if err != nil {
			if tc.t != nil {
				tc.t.dropConn(tc.peer, tc, err)
			}
			return
		}
	}
}

// peek fails a connection read in place whose peer has closed or reset it
// while its owner is not reading — as a reader goroutine would notice at
// once — looking without waiting and consuming nothing. The flusher peeks
// after each flush: its frames were left by an owner that was busy, and a
// send may be all that follows. Bytes the owner's reader has buffered are
// left to the owner, whose next read delivers them before it meets the end.
func (tc *tcpConn) peek() {
	if tc.role(evBegin, nil)&actOwn == 0 {
		return
	}
	var err error
	if !tc.rd.pending() {
		err = tc.rd.src.raw.peerGone()
	}
	tc.release()
	if err != nil {
		tc.t.dropConn(tc.peer, tc, err)
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

// tcpReadBuf is the per-connection read buffer, resident per connection:
// the largest frame the peer's write combiner coalesces (TCPCoalesceLimit),
// so a batch of small frames arrives in one read.
const tcpReadBuf = 4 << 10

// frameReader is a connection's one frame reader, which its reader
// goroutine inherits from the owner's reads in place. A read may stop part
// way through a frame and the next read resumes it.
type frameReader struct {
	src connReader
	br  *bufio.Reader
	// The frame in progress: hdrN bytes of its length prefix, then (body)
	// got bytes of data, which lies in buf when that is pooled.
	hdr  [4]byte
	hdrN int
	body bool
	data []byte
	buf  *frameBuf
	got  int
}

// newFrameReader wraps a connection. bufio reads a frame body larger than
// the buffer straight into its destination once the buffered prefix is
// consumed, so large frames are still not copied twice.
func newFrameReader(c net.Conn) *frameReader {
	r := &frameReader{src: connReader{c: c}}
	r.src.raw.init(rawConnOf(c))
	r.br = bufio.NewReaderSize(&r.src, tcpReadBuf)
	return r
}

// next reads the rest of the frame in progress, of at most limit bytes
// (checked before anything is allocated), into a buffer that never aliases
// the read buffer: pooled (returned as buf) when the frame is small, the
// receiver's for good otherwise (DESIGN.md §7). On any other error the
// frame stays in progress.
func (r *frameReader) next(limit uint32) (data []byte, buf *frameBuf, err error) {
	for r.hdrN < len(r.hdr) {
		n, err := r.br.Read(r.hdr[r.hdrN:])
		r.hdrN += n
		if err != nil {
			return nil, nil, err
		}
	}
	if !r.body {
		n := binary.BigEndian.Uint32(r.hdr[:])
		if n > limit {
			return nil, nil, fmt.Errorf("nexus: frame of %d bytes exceeds limit", n)
		}
		r.data, r.buf = frameBytes(int(n))
		r.body, r.got = true, 0
	}
	for r.got < len(r.data) {
		n, err := r.br.Read(r.data[r.got:])
		r.got += n
		if err != nil {
			return nil, nil, err
		}
	}
	data, buf = r.data, r.buf
	r.hdrN, r.body, r.data, r.buf = 0, false, nil, nil
	return data, buf, nil
}

// pending reports whether bytes of a next frame have been read or buffered.
func (r *frameReader) pending() bool { return r.hdrN > 0 || r.br.Buffered() > 0 }

// connReader is what a frameReader's buffer fills from: the connection, or,
// for a poll (nowait), its descriptor read without waiting.
type connReader struct {
	c      net.Conn
	raw    rawReader
	nowait bool
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.nowait {
		return r.raw.read(p)
	}
	return r.c.Read(p)
}

// rawReader and rawWriter use a connection's descriptor without waiting
// (rawio_linux.go), returning errWouldBlock where the socket would park
// them; their callbacks are method values made once, so a call allocates
// nothing. rc is nil where the descriptor is out of reach (a test double,
// a platform other than Linux): such a connection is never read in place.
// The reader goes through RawConn.Control, which ignores the read deadline,
// so a poll after a timed wait need not clear the wait's deadline.
type rawReader struct {
	rc   syscall.RawConn
	fn   func(fd uintptr)
	p    []byte
	n    int
	peek bool // look without consuming
	err  error
	one  [1]byte
}

type rawWriter struct {
	rc   syscall.RawConn
	fn   func(fd uintptr) bool
	bufs *net.Buffers
	wait bool
	err  error
}

// errWouldBlock is the raw side's report that the socket would have made it
// wait.
var errWouldBlock = errors.New("nexus: would block")

func (r *rawReader) init(rc syscall.RawConn) { r.rc, r.fn = rc, r.readFD }

func (w *rawWriter) init(rc syscall.RawConn) { w.rc, w.fn = rc, w.writevFD }

// read reads what has arrived into p without waiting.
func (r *rawReader) read(p []byte) (int, error) {
	if r.rc == nil {
		return 0, errWouldBlock
	}
	r.p, r.n, r.peek, r.err = p, 0, false, nil
	err := r.rc.Control(r.fn)
	r.p = nil
	if err != nil {
		return 0, err
	}
	return r.n, r.err
}

// peerGone returns the error that has ended the read side — io.EOF for a
// peer that closed — or nil while it is open, or when that cannot be told
// without consuming what has arrived.
func (r *rawReader) peerGone() error {
	r.p, r.peek, r.err = r.one[:], true, nil
	if r.rc == nil || r.rc.Control(r.fn) != nil || r.err == errWouldBlock {
		return nil // open, or closed here: the owner sees it
	}
	return r.err
}

// writev writes bufs, consuming what it wrote. When the send buffer is
// full it waits for room, as a write to the connection does, if wait is
// set, and otherwise returns errWouldBlock with the rest still in bufs.
func (w *rawWriter) writev(bufs *net.Buffers, wait bool) error {
	w.bufs, w.wait, w.err = bufs, wait, nil
	err := w.rc.Write(w.fn)
	w.bufs = nil
	if err != nil {
		return err
	}
	return w.err
}

// isTimeout reports a read that a deadline ended: the wait's own, or one
// moved into the past to cut the read short.
func isTimeout(err error) bool { return err != nil && errors.Is(err, os.ErrDeadlineExceeded) }
