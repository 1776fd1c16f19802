// Package nexus is PARDIS' network transport layer, playing the role
// NexusLite (the single-threaded Nexus implementation) played in the
// original system.
//
// The model is Nexus' startpoint/endpoint remote-service-request style
// rather than BSD sockets: every logical thread owns one Endpoint; frames
// sent to an endpoint's address accumulate in its inbox, stamped with the
// sender's address, and the owner polls or blocks for them. Three
// interchangeable fabrics implement the model:
//
//   - Inproc — in-process queues; runnable examples and tests.
//   - TCP — real sockets on the loopback or a LAN (transport.go).
//   - Sim — virtual-time fabric over simnet links; the experiment
//     harness (sim.go).
//
// Single-threadedness is preserved where it matters: on the Sim fabric a
// Send occupies the sending thread for the frame's full wire time, exactly
// the NexusLite behaviour the paper blames for the flattening of Figure 5.
package nexus

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Addr identifies an endpoint. The scheme prefix names the fabric
// ("inproc://", "tcp://", "sim://").
type Addr string

// Frame is one received message.
type Frame struct {
	From Addr
	Data []byte
}

// ErrClosed is returned for operations on a closed endpoint or fabric.
var ErrClosed = errors.New("nexus: endpoint closed")

// ErrNoRoute is returned when an address cannot be reached.
var ErrNoRoute = errors.New("nexus: no route to address")

// Endpoint is a logical thread's communication port.
//
// Recv and Poll must be called only by the owning thread; Send may be
// called by the owner (Sim fabric: only the owner). Frames between the same
// pair of endpoints arrive in send order.
type Endpoint interface {
	// Addr is this endpoint's reachable address.
	Addr() Addr
	// Send delivers a frame to the endpoint at to. It may block for the
	// frame's wire occupancy but never waits for the receiver.
	Send(to Addr, data []byte) error
	// SendV delivers the concatenation of bufs as one frame — the vectored
	// (zero-copy) path for header+payload framing. The fabric does not
	// retain bufs after SendV returns, so callers may reuse pooled buffers
	// immediately; receivers see a single contiguous frame.
	//
	// A nil error means the fabric has accepted the frame, not that it has
	// left: the TCP fabric may hold a small frame back to share a write
	// with its successors (DESIGN.md §12). An accepted frame is written
	// without any further call by the sender and before Close returns; if
	// the connection fails first it is lost with it, as bytes already in
	// the kernel's send buffer would be, and later sends re-dial.
	SendV(to Addr, bufs ...[]byte) error
	// Recv blocks until a frame arrives.
	Recv() (Frame, error)
	// Poll returns a frame if one is pending.
	Poll() (Frame, bool, error)
	// Close releases the endpoint; concurrent and subsequent receives
	// fail with ErrClosed.
	Close() error
}

// ErrRecvTimeout is returned by RecvTimeout when the deadline passes with
// no frame delivered. It is distinct from transport failure: the endpoint
// remains usable.
var ErrRecvTimeout = errors.New("nexus: receive deadline exceeded")

// RecvTimeout blocks for one frame or until the wall-clock deadline,
// whichever comes first, by polling the endpoint from the calling thread.
// Unlike pairing Recv with a watchdog goroutine, no goroutine is ever left
// parked in Recv past the deadline — the historical source of leaked
// receivers on abandoned endpoints. Owner-thread-only, like Recv itself.
func RecvTimeout(ep Endpoint, deadline time.Time) (Frame, error) {
	sleep := 50 * time.Microsecond
	for {
		fr, ok, err := ep.Poll()
		if err != nil {
			return Frame{}, err
		}
		if ok {
			return fr, nil
		}
		if !time.Now().Before(deadline) {
			return Frame{}, ErrRecvTimeout
		}
		time.Sleep(sleep)
		// Back off geometrically to 5ms so a long deadline does not spin.
		if sleep < 5*time.Millisecond {
			sleep *= 2
		}
	}
}

// ConcurrentSender is an optional Endpoint capability: fabrics whose Send
// and SendV may be called from multiple goroutines concurrently implement it
// returning true. The Inproc and TCP fabrics qualify (their send paths are
// mutex-protected); the Sim fabric does not — a simulated send occupies the
// owning virtual thread for the frame's wire time, so it must stay on that
// thread. The parallel segment fan-out of the ORB/POA transfer engine
// consults this capability and falls back to serial sends when absent.
type ConcurrentSender interface {
	ConcurrentSendSafe() bool
}

// RecvNotifier is an optional Endpoint capability: fabrics that can signal
// frame arrival implement it, letting a receiver block on a wakeup instead
// of sleep-polling between scans. SetRecvNotify registers fn to be called
// (from the delivering goroutine — fn must not block) whenever a frame
// lands in an empty inbox, and reports whether the endpoint actually
// supports notification; wrappers that cannot tell forward the inner
// endpoint's answer. The Inproc and TCP fabrics support it; the Sim fabric
// does not — virtual time must advance through Thread.Sleep, never through
// a wall-clock wait.
type RecvNotifier interface {
	SetRecvNotify(fn func()) bool
}

// --- In-process fabric -------------------------------------------------------

// Inproc is an in-process fabric: a namespace of endpoints connected by
// queues. Safe for concurrent use by many goroutines.
type Inproc struct {
	mu   sync.Mutex
	next int
	eps  map[Addr]*inprocEP
}

// NewInproc creates an empty in-process fabric.
func NewInproc() *Inproc {
	return &Inproc{eps: map[Addr]*inprocEP{}}
}

// NewEndpoint creates an endpoint. The name is advisory; the returned
// endpoint's Addr is unique within the fabric.
func (f *Inproc) NewEndpoint(name string) Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	ep := &inprocEP{
		fabric: f,
		addr:   Addr(fmt.Sprintf("inproc://%s/%d", name, f.next)),
	}
	ep.cond = sync.NewCond(&ep.mu)
	f.eps[ep.addr] = ep
	return ep
}

func (f *Inproc) lookup(a Addr) (*inprocEP, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.eps[a]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, a)
	}
	return ep, nil
}

func (f *Inproc) drop(a Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.eps, a)
}

type inprocEP struct {
	fabric *Inproc
	addr   Addr

	mu   sync.Mutex
	cond *sync.Cond
	// Consumed from qhead and rewound when empty so the backing array is
	// reused across pushes (see the tcp endpoint's queue for rationale).
	queue  []Frame
	qhead  int
	notify func()
	closed bool
}

func (e *inprocEP) Addr() Addr { return e.addr }

// ConcurrentSendSafe implements ConcurrentSender: the in-process fabric
// serializes deliveries on the destination's mutex.
func (e *inprocEP) ConcurrentSendSafe() bool { return true }

// SetRecvNotify implements RecvNotifier.
func (e *inprocEP) SetRecvNotify(fn func()) bool {
	e.mu.Lock()
	e.notify = fn
	e.mu.Unlock()
	return true
}

// pop removes the frame at qhead; caller must hold e.mu and have checked
// the queue is non-empty.
func (e *inprocEP) pop() Frame {
	fr := e.queue[e.qhead]
	e.queue[e.qhead] = Frame{}
	e.qhead++
	if e.qhead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qhead = 0
	}
	return fr
}

func (e *inprocEP) Send(to Addr, data []byte) error {
	return e.SendV(to, data)
}

func (e *inprocEP) SendV(to Addr, bufs ...[]byte) error {
	dst, err := e.fabric.lookup(to)
	if err != nil {
		return err
	}
	cp := concat(bufs)
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrClosed, to)
	}
	wasEmpty := dst.qhead == len(dst.queue)
	dst.queue = append(dst.queue, Frame{From: e.addr, Data: cp})
	dst.cond.Broadcast()
	notify := dst.notify
	dst.mu.Unlock()
	if wasEmpty && notify != nil {
		notify()
	}
	return nil
}

// concat joins buffers into one freshly-allocated frame — the slice-concat
// SendV semantics of the in-process and simulated fabrics, which must copy
// anyway because the receiver keeps the frame.
func concat(bufs [][]byte) []byte {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	cp := make([]byte, n)
	off := 0
	for _, b := range bufs {
		off += copy(cp[off:], b)
	}
	return cp
}

func (e *inprocEP) Recv() (Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.qhead == len(e.queue) && !e.closed {
		e.cond.Wait()
	}
	if e.qhead == len(e.queue) {
		return Frame{}, ErrClosed
	}
	return e.pop(), nil
}

func (e *inprocEP) Poll() (Frame, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed && e.qhead == len(e.queue) {
		return Frame{}, false, ErrClosed
	}
	if e.qhead == len(e.queue) {
		return Frame{}, false, nil
	}
	return e.pop(), true, nil
}

func (e *inprocEP) Close() error {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.fabric.drop(e.addr)
	return nil
}
