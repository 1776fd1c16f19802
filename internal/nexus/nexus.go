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
	"maps"
	"sync"
	"sync/atomic"
)

// Addr identifies an endpoint. The scheme prefix names the fabric
// ("inproc://", "tcp://", "sim://").
type Addr string

// Frame is one received message.
//
// A frame of at most smallFrame bytes from the Inproc or TCP fabric is the
// transport's: Data lies in a pooled buffer (Pooled reports it) that Release
// hands back, so nothing that must outlive the Release may alias Data. Every
// other frame — larger, or from the Sim fabric — is the garbage collector's,
// and so is a pooled frame that is never released.
type Frame struct {
	From Addr
	Data []byte

	buf *frameBuf // the pooled buffer Data lies in; nil when the GC owns Data
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
	// frame's wire occupancy but does not wait for the receiver — with the
	// one exception SendV states.
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
	//
	// The one case where a send waits for its receiver: a TCP receiver that
	// reads its connection itself (DESIGN.md §12, "Who reads a frame") and
	// is computing, not receiving, while both socket buffers between the
	// two are full. The sender then waits until the receiver reads — the
	// kernel's backpressure, where a reader goroutine would have queued
	// without bound.
	SendV(to Addr, bufs ...[]byte) error
	// Recv blocks until a frame arrives.
	Recv() (Frame, error)
	// Poll returns a frame if one is pending.
	Poll() (Frame, bool, error)
	// Close releases the endpoint; concurrent and subsequent receives
	// fail with ErrClosed.
	Close() error
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

// RecvNotifier is an optional Endpoint capability, what a Waiter parks on:
// SetRecvNotify registers fn to be called (from the delivering goroutine —
// fn must not block) whenever a frame lands in an empty inbox, and reports
// whether the endpoint supports notification; wrappers forward the inner
// endpoint's answer. An endpoint takes one registration — a second panics,
// as two waiters would steal each other's wake-ups. The Inproc and TCP
// fabrics support it; Sim endpoints end their owner's vtime Await instead.
type RecvNotifier interface {
	SetRecvNotify(fn func()) bool
}

// PollQueued is Poll for an owner about to park on the Waiter that watches
// ep, whose read is then the probe of ep's connection (DESIGN.md §12): it
// takes the inbox's frames, and those the owner's last read in place left
// buffered, and reads nothing else. Other endpoints are polled.
func PollQueued(ep Endpoint) (Frame, bool, error) {
	if q, ok := ep.(interface{ pollQueued() (Frame, bool, error) }); ok {
		return q.pollQueued()
	}
	return ep.Poll()
}

// --- In-process fabric -------------------------------------------------------

// Inproc is an in-process fabric: a namespace of endpoints connected by
// queues. Safe for concurrent use by many goroutines; a send finds its
// destination in a copy-on-write table, without a lock.
type Inproc struct {
	mu   sync.Mutex // serializes the table's writers
	next int
	eps  atomic.Pointer[map[Addr]*inprocEP]
}

// NewInproc creates an empty in-process fabric.
func NewInproc() *Inproc {
	f := new(Inproc)
	f.eps.Store(&map[Addr]*inprocEP{})
	return f
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
	ep.inbox.init()
	eps := maps.Clone(*f.eps.Load())
	eps[ep.addr] = ep
	f.eps.Store(&eps)
	return ep
}

func (f *Inproc) lookup(a Addr) (*inprocEP, error) {
	if ep := (*f.eps.Load())[a]; ep != nil {
		return ep, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoRoute, a)
}

func (f *Inproc) drop(a Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	eps := maps.Clone(*f.eps.Load())
	delete(eps, a)
	f.eps.Store(&eps)
}

// inbox is an endpoint's receive queue, the part the Inproc and TCP fabrics
// share: frames pushed by whoever delivers (a sending goroutine, a
// connection's reader), popped by the owning thread. Embedding it gives an
// endpoint Recv, Poll and SetRecvNotify.
type inbox struct {
	mu   sync.Mutex
	cond sync.Cond // on mu; see init
	// Consumed from qhead and rewound when empty, so a pop is O(1) and the
	// backing array is reused across pushes.
	queue  []Frame
	qhead  int
	notify func()
	closed bool
}

func (q *inbox) init() { q.cond.L = &q.mu }

// SetRecvNotify implements RecvNotifier.
func (q *inbox) SetRecvNotify(fn func()) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if fn != nil && q.notify != nil {
		panic("nexus: endpoint already watched by another waiter")
	}
	q.notify = fn
	return true
}

// push delivers a frame, reporting false — the frame is dropped — when the
// inbox is closed.
func (q *inbox) push(fr Frame) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	wasEmpty := q.qhead == len(q.queue)
	q.queue = append(q.queue, fr)
	q.cond.Broadcast()
	notify := q.notify
	q.mu.Unlock()
	if wasEmpty && notify != nil {
		notify()
	}
	return true
}

// put queues a frame its owner read itself, so nobody is to be told.
func (q *inbox) put(fr Frame) {
	q.mu.Lock()
	if !q.closed {
		q.queue = append(q.queue, fr)
	}
	q.mu.Unlock()
}

// wake rouses the owner parked on the queue — in Recv, or in the wait of a
// Waiter watching it — to look again: a frame may now be its to read.
func (q *inbox) wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	notify := q.notify
	q.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// pop removes the frame at qhead; caller must hold q.mu and have checked
// the queue is non-empty.
func (q *inbox) pop() Frame {
	fr := q.queue[q.qhead]
	q.queue[q.qhead] = Frame{} // drop the frame reference promptly
	q.qhead++
	if q.qhead == len(q.queue) {
		q.queue = q.queue[:0]
		q.qhead = 0
	}
	return fr
}

// Recv implements Endpoint.
func (q *inbox) Recv() (Frame, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.qhead == len(q.queue) && !q.closed {
		q.cond.Wait()
	}
	if q.qhead == len(q.queue) {
		return Frame{}, ErrClosed
	}
	return q.pop(), nil
}

// Poll implements Endpoint.
func (q *inbox) Poll() (Frame, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.qhead == len(q.queue) {
		if q.closed {
			return Frame{}, false, ErrClosed
		}
		return Frame{}, false, nil
	}
	return q.pop(), true, nil
}

// state reports whether the inbox is closed and whether frames are waiting
// in it.
func (q *inbox) state() (closed, waiting bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed, q.qhead != len(q.queue)
}

// shut closes the inbox: pushes are dropped, and receives fail once what is
// already queued has been taken.
func (q *inbox) shut() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

type inprocEP struct {
	inbox
	fabric *Inproc
	addr   Addr
}

func (e *inprocEP) Addr() Addr { return e.addr }

// ConcurrentSendSafe implements ConcurrentSender: the in-process fabric
// serializes deliveries on the destination's mutex.
func (e *inprocEP) ConcurrentSendSafe() bool { return true }

func (e *inprocEP) Send(to Addr, data []byte) error {
	return e.SendV(to, data)
}

func (e *inprocEP) SendV(to Addr, bufs ...[]byte) error {
	dst, err := e.fabric.lookup(to)
	if err != nil {
		return err
	}
	// The fabric must copy (the receiver keeps the frame, the caller keeps
	// bufs); a small copy goes into a pooled buffer the receiver can return.
	fr := Frame{From: e.addr}
	fr.Data, fr.buf = frameBytes(totalLen(bufs))
	gather(fr.Data, bufs)
	if !dst.push(fr) {
		return fmt.Errorf("%w: %s", ErrClosed, to)
	}
	return nil
}

func totalLen(bufs [][]byte) int {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// gather copies bufs back to back into dst, which must be long enough.
func gather(dst []byte, bufs [][]byte) {
	off := 0
	for _, b := range bufs {
		off += copy(dst[off:], b)
	}
}

// concat joins buffers into one freshly allocated frame the GC owns — what
// the simulated fabrics deliver as is and the fault injector passes on.
func concat(bufs [][]byte) []byte {
	cp := make([]byte, totalLen(bufs))
	gather(cp, bufs)
	return cp
}

func (e *inprocEP) Close() error {
	e.shut()
	e.fabric.drop(e.addr)
	return nil
}
