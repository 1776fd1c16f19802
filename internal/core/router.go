package core

import (
	"fmt"
	"sync"

	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
)

// Msg is one decoded protocol message with its sender.
type Msg struct {
	From nexus.Addr
	Type pgiop.MsgType

	Req      *pgiop.Request
	Reply    *pgiop.Reply
	Arg      *pgiop.ArgStream
	Loc      *pgiop.LocateRequest
	LocReply *pgiop.LocateReply
	Cancel   *pgiop.CancelRequest
	Shutdown *pgiop.Shutdown
	Fault    *pgiop.FaultNotice

	// Inline storage for the two hot payload types: DecodeMsg points Req
	// and Reply here, folding message + payload into one allocation. Msg
	// must therefore never be copied by value once decoded (the pointers
	// would alias the original). Consumers that retain m.Req or m.Reply
	// keep the whole Msg alive, which is fine — they share a lifetime.
	reqVal   pgiop.Request
	replyVal pgiop.Reply

	// args is the inline storage behind Args: a request carries its
	// servant's argument slots, so dispatch allocates none.
	args [msgArgSlots]any

	// frame is the frame the message was decoded from, kept for its buffer:
	// Release hands a pooled one back to the transport (see FramePooled).
	frame nexus.Frame
}

// msgArgSlots is the number of servant argument slots a Msg carries inline;
// operations with more parameters fall back to a fresh slice.
const msgArgSlots = 4

// msgPool recycles Msg records between Release and DecodeMsg. A Msg is the
// runtime's, never the application's: decoded *values* are copies, or alias
// a frame the GC owns (DESIGN.md §7), so returning the record — and with it
// a pooled frame — takes nothing from them.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// Args returns n servant argument slots, all nil, valid until Release.
func (m *Msg) Args(n int) []any {
	if n > len(m.args) {
		return make([]any, n)
	}
	return m.args[:n:n]
}

// FramePooled reports whether the message's frame is on loan from the
// transport, so that Release will hand its bytes to the next frame read. It
// is the one rule for whoever decodes values out of the message (m.Req.Body,
// m.Reply.Body): borrow from a frame the GC owns, copy out of a frame the
// transport wants back — cdr.Decoder.SetBorrow(!m.FramePooled()).
func (m *Msg) FramePooled() bool { return m.frame.Pooled() }

// Release hands the record, and the frame it was decoded from if that is a
// pooled one, back to the runtime for reuse. Only the two consumers that can
// prove nothing else still sees them call this — the ORB once a reply has
// resolved its invocation, the POA once a single-object request has been
// served or shed; every other message is left to the GC, frame and all. The
// record is zeroed first, so a pooled record pins no frame and a stale
// pointer into it (a servant that wrongly kept its argument slice) reads
// nil. m, and every slice of the frame it gave out (the Body of its header),
// must not be used afterwards.
func (m *Msg) Release() {
	fr := m.frame
	*m = Msg{}
	msgPool.Put(m)
	fr.Release()
}

// DecodeMsg parses any protocol frame.
func DecodeMsg(fr nexus.Frame) (*Msg, error) {
	t, err := pgiop.PeekType(fr.Data)
	if err != nil {
		return nil, err
	}
	m := msgPool.Get().(*Msg)
	m.From, m.Type = fr.From, t
	switch t {
	case pgiop.MsgRequest:
		if err = pgiop.DecodeRequestInto(&m.reqVal, fr.Data); err == nil {
			m.Req = &m.reqVal
		}
	case pgiop.MsgReply:
		if err = pgiop.DecodeReplyInto(&m.replyVal, fr.Data); err == nil {
			m.Reply = &m.replyVal
		}
	case pgiop.MsgArgStream:
		m.Arg, err = pgiop.DecodeArgStream(fr.Data)
	case pgiop.MsgLocateRequest:
		m.Loc, err = pgiop.DecodeLocateRequest(fr.Data)
	case pgiop.MsgLocateReply:
		m.LocReply, err = pgiop.DecodeLocateReply(fr.Data)
	case pgiop.MsgCancelRequest:
		m.Cancel, err = pgiop.DecodeCancelRequest(fr.Data)
	case pgiop.MsgShutdown:
		m.Shutdown, err = pgiop.DecodeShutdown(fr.Data)
	case pgiop.MsgFault:
		m.Fault, err = pgiop.DecodeFaultNotice(fr.Data)
	default:
		err = fmt.Errorf("%w: unroutable type %d", pgiop.ErrBadMessage, t)
	}
	if err != nil {
		// The record goes back; the frame, which was never attached, is left
		// to the GC with whatever the failed decode made of it.
		m.Release()
		return nil, err
	}
	m.frame = fr
	return m, nil
}

// clientBound reports whether the message belongs to the thread's client
// role (replies and out-direction segments) rather than its server role.
func (m *Msg) clientBound() bool {
	switch m.Type {
	case pgiop.MsgReply, pgiop.MsgLocateReply:
		return true
	case pgiop.MsgArgStream:
		return m.Arg.Dir == pgiop.DirOut
	}
	return false
}

// Router demultiplexes one computing thread's endpoint between its client
// role (the ORB waiting for replies) and its server role (the POA waiting
// for requests). A thread that is both — a server pipelining results to
// another server, as in the paper's §4.3 — shares its single endpoint
// through a Router.
//
// All methods must be called from the owning thread; the single-threaded
// discipline is the same as NexusLite's.
type Router struct {
	ep      nexus.Endpoint
	clientQ msgQueue
	serverQ msgQueue
}

// msgQueue holds the messages one role set aside while the other was
// receiving — a whole batch of them when the transport delivers one.
// Consumed from head and rewound when empty, so a pop is O(1) and the
// backing array is reused (the pattern of nexus' inbox queues).
type msgQueue struct {
	q    []*Msg
	head int
}

func (q *msgQueue) push(m *Msg) { q.q = append(q.q, m) }

// pop removes the oldest message; ok is false when the queue is empty.
func (q *msgQueue) pop() (m *Msg, ok bool) {
	if q.head == len(q.q) {
		return nil, false
	}
	m = q.q[q.head]
	q.q[q.head] = nil
	if q.head++; q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return m, true
}

// NewRouter wraps an endpoint.
func NewRouter(ep nexus.Endpoint) *Router { return &Router{ep: ep} }

// Addr is the underlying endpoint's address.
func (r *Router) Addr() nexus.Addr { return r.ep.Addr() }

// Send forwards a frame to the underlying endpoint.
func (r *Router) Send(to nexus.Addr, frame []byte) error { return r.ep.Send(to, frame) }

// SendV2 sends hdr and body as one vectored frame through iov, the caller's
// scratch buffer list, so no variadic slice is allocated per frame. iov is
// cleared again before SendV2 returns. Like nexus.Endpoint.SendV, the
// transport does not retain the buffers after it returns, so pooled
// encoders behind them may be released immediately.
func (r *Router) SendV2(iov *[2][]byte, to nexus.Addr, hdr, body []byte) error {
	iov[0], iov[1] = hdr, body
	err := r.ep.SendV(to, iov[:]...)
	iov[0], iov[1] = nil, nil
	return err
}

// Close closes the underlying endpoint.
func (r *Router) Close() error { return r.ep.Close() }

// ConcurrentSendSafe reports whether the underlying fabric permits Send and
// SendV from multiple goroutines concurrently — the capability gate for the
// parallel segment fan-out and the POA dispatch pool (see
// nexus.ConcurrentSender). Receives remain owner-thread-only either way.
func (r *Router) ConcurrentSendSafe() bool {
	cs, ok := r.ep.(nexus.ConcurrentSender)
	return ok && cs.ConcurrentSendSafe()
}

// WatchBy adds the router's endpoint to th's timed wait (rts.Thread.Watch).
func (r *Router) WatchBy(th rts.Thread) bool { return th.Watch(r.ep) }

// RecvClient returns the next client-bound message; with block=false it
// returns ok=false when none is pending. Server-bound messages encountered
// while waiting are queued for RecvServer.
func (r *Router) RecvClient(block bool) (*Msg, bool, error) {
	return r.recv(block, false, true)
}

// RecvServer returns the next server-bound message, queueing client-bound
// ones encountered while waiting.
func (r *Router) RecvServer(block bool) (*Msg, bool, error) {
	return r.recv(block, false, false)
}

// PollClient and PollServer are RecvClient(false) and RecvServer(false),
// except that with queued they take only what has been delivered
// (nexus.PollQueued): for an owner that parks on its timed wait when it
// finds nothing, whose own read then probes the endpoint's connection.
func (r *Router) PollClient(queued bool) (*Msg, bool, error) {
	return r.recv(false, queued, true)
}

// PollServer is PollClient for server-bound messages.
func (r *Router) PollServer(queued bool) (*Msg, bool, error) {
	return r.recv(false, queued, false)
}

// recv returns the next message for the role, from its queue, else from the
// endpoint: by Recv with block, by Poll without, by PollQueued with queued.
func (r *Router) recv(block, queued, wantClient bool) (*Msg, bool, error) {
	for {
		q := &r.serverQ
		if wantClient {
			q = &r.clientQ
		}
		if m, ok := q.pop(); ok {
			return m, true, nil
		}
		var fr nexus.Frame
		if block {
			var err error
			fr, err = r.ep.Recv()
			if err != nil {
				return nil, false, err
			}
		} else {
			var ok bool
			var err error
			if queued {
				fr, ok, err = nexus.PollQueued(r.ep)
			} else {
				fr, ok, err = r.ep.Poll()
			}
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
		}
		m, err := DecodeMsg(fr)
		if err != nil {
			continue // drop foreign/corrupt frames
		}
		if m.clientBound() == wantClient {
			return m, true, nil
		}
		if m.clientBound() {
			r.clientQ.push(m)
		} else {
			r.serverQ.push(m)
		}
	}
}
