// Package pgiop defines PARDIS' inter-ORB wire protocol — the GIOP analog
// exchanged as nexus frames between client and server computing threads.
//
// Beyond GIOP's Request/Reply/Locate messages, the protocol adds the
// ArgStream message: a self-describing segment of a distributed argument
// flowing *directly* between one client thread and one server thread, which
// is how the ORB transfers distributed arguments in parallel instead of
// funneling them through a single connection.
//
// Correlation model:
//   - (BindingID, SeqNo) identifies one collective invocation globally;
//     SeqNo also gives the per-binding ordering guarantee.
//   - ReqID is a per-client-thread id used to match Reply (and out-bound
//     ArgStream) messages to that thread's pending futures.
package pgiop

import (
	"errors"
	"fmt"

	"pardis/internal/cdr"
	"pardis/internal/dist"
)

// MsgType discriminates protocol messages.
type MsgType byte

// Protocol message types.
const (
	MsgRequest MsgType = iota + 1
	MsgReply
	MsgArgStream
	MsgLocateRequest
	MsgLocateReply
	MsgCancelRequest
	MsgShutdown
	MsgFault
)

// Version is the protocol version this build emits in every message and the
// only one it accepts: PeekType, which every decoder runs first, rejects any
// other version byte before a field is read. A change to the wire layout
// bumps it.
const Version byte = 4

var magic = [2]byte{'P', 'G'}

// ErrBadMessage reports a malformed or foreign frame.
var ErrBadMessage = errors.New("pgiop: bad message")

// Status codes carried in Reply.
const (
	StatusOK        byte = 0
	StatusException byte = 1
	// StatusOverloaded is the admission-control shed: the server refused to
	// queue the request and the client should retry after Reply.RetryAfterMS
	// — here or on another member of the object's group.
	StatusOverloaded byte = 2
)

// Directions for ArgStream.
const (
	DirIn  byte = 0 // client -> server
	DirOut byte = 1 // server -> client
)

// DistInSpec announces a distributed "in" argument: its parameter index and
// global length. (Both sides already know the distribution templates from
// the interface definition exchanged at bind time.)
type DistInSpec struct {
	Param int32
	N     int32
	// Layout is the client-side layout of the argument, letting the
	// server validate against the runs it receives.
	Layout dist.Layout
}

// DistOutSpec announces the client's requested distribution for a
// distributed "out" argument — the paper's "the client can set the
// distribution of the expected out arguments before making an invocation".
type DistOutSpec struct {
	Param int32
	Tmpl  dist.Template
}

// Request is the invocation header. Every client thread sends one to server
// thread 0; threads j != 0 learn of it through the server's internal
// dispatch broadcast.
type Request struct {
	BindingID  string
	SeqNo      uint32
	ReqID      uint32
	ClientRank int32
	ClientSize int32
	ReplyAddr  string
	ObjectKey  string
	Operation  string
	Oneway     bool
	// DeadlineMS is the client's per-invocation deadline in milliseconds
	// (0 = none). The server uses it to bound its own blocking waits for
	// this invocation — most importantly segment collection — so a client
	// that has given up never leaves the server wedged on its behalf.
	DeadlineMS uint32
	// TraceID/SpanID carry the invocation's trace context (both zero when
	// tracing is off). TraceID is
	// allocated once at the stub and shared by every rank and layer the
	// invocation touches; SpanID is the client's per-attempt send span, the
	// parent under which the server nests its own spans — a retried attempt
	// keeps the TraceID but carries a fresh SpanID.
	TraceID  uint64
	SpanID   uint64
	Body     []byte // inline (non-distributed) in/inout arguments
	DistIns  []DistInSpec
	DistOuts []DistOutSpec
}

// OutLen announces a distributed out argument's global length in a Reply.
type OutLen struct {
	Param int32
	N     int32
	// Layout is the server-side layout the segments were cut from.
	Layout dist.Layout
}

// Reply completes an invocation for one client thread.
type Reply struct {
	ReqID  uint32
	Status byte
	Error  string // exception reason when Status != StatusOK
	// RetryAfterMS is the server's backoff hint in milliseconds when Status
	// is StatusOverloaded (zero otherwise).
	RetryAfterMS uint32
	Body         []byte // return value + non-distributed out/inout arguments
	OutLens      []OutLen
}

// Run describes one contiguous piece of an ArgStream in receiver
// coordinates.
type Run struct {
	Global int32 // first global element index
	Len    int32
	DstOff int32 // offset in the receiving thread's local storage
}

// ArgStream carries segment data of one distributed argument between one
// (sender thread, receiver thread) pair.
type ArgStream struct {
	BindingID string
	SeqNo     uint32
	ReqID     uint32 // out-direction: the receiving client thread's ReqID
	Param     int32
	Dir       byte
	// Sender is the sending computing thread's rank (client rank for
	// in-direction, server rank for out-direction). Receivers account
	// arriving elements per sender, which is what lets a deadline failure
	// name the rank whose share never arrived.
	Sender int32
	// ChunkOff/More are the streamed-transfer chunk framing. ChunkOff is this chunk's element offset
	// within the sender's move and More reports whether further chunks of
	// the same (param, sender) stream follow. Chunks are positionally
	// self-describing — every one carries its own Runs — so receivers need
	// neither field for correctness; they serve run accounting, metrics,
	// and diagnostics of a stream cut short.
	ChunkOff uint32
	More     bool
	Runs     []Run
	Payload  []byte
}

// LocateRequest asks whether a server hosts the object.
type LocateRequest struct {
	ReqID     uint32
	ObjectKey string
}

// LocateReply answers a LocateRequest.
type LocateReply struct {
	ReqID uint32
	Found bool
}

// CancelRequest withdraws interest in a pending request's reply.
type CancelRequest struct {
	BindingID string
	SeqNo     uint32
}

// Shutdown asks a server to leave its dispatch loop.
type Shutdown struct {
	Reason string
}

// FaultNotice tells a peer computing thread that a rank of the parallel
// program has been found unresponsive (or otherwise faulted), so the peer
// can abandon its own collective state instead of discovering the death
// independently — or never. Rank is the implicated computing-thread rank
// (-1 when unknown); Phase names the protocol stage that detected it.
type FaultNotice struct {
	Rank   int32
	Phase  string
	Reason string
}

func putHeader(e *cdr.Encoder, t MsgType) {
	e.PutOctet(magic[0])
	e.PutOctet(magic[1])
	e.PutOctet(Version)
	e.PutOctet(byte(t))
}

// PeekType classifies a frame without fully decoding it.
func PeekType(frame []byte) (MsgType, error) {
	if len(frame) < 4 || frame[0] != magic[0] || frame[1] != magic[1] {
		return 0, fmt.Errorf("%w: missing magic", ErrBadMessage)
	}
	if frame[2] != Version {
		return 0, fmt.Errorf("%w: version %d", ErrBadMessage, frame[2])
	}
	t := MsgType(frame[3])
	if t < MsgRequest || t > MsgFault {
		return 0, fmt.Errorf("%w: type %d", ErrBadMessage, frame[3])
	}
	return t, nil
}

// expect checks that frame is a message of type want and points d, the
// caller's decoder — on its stack, so a decode borrows nothing — at the
// body after the 4-byte header. d decodes over the whole frame so the
// alignment phase matches the encoder's; decoded values alias the frame,
// never the decoder.
func expect(d *cdr.Decoder, frame []byte, want MsgType) error {
	if len(frame) < 4 || frame[0] != magic[0] || frame[1] != magic[1] || frame[2] != Version || MsgType(frame[3]) != want {
		t, err := PeekType(frame)
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: type %d, want %d", ErrBadMessage, t, want)
	}
	d.Reset(frame)
	d.GetRaw(4)
	return nil
}

// AppendRequest encodes everything of a Request except the Body bytes into
// e, ending with Body's length prefix. The caller transmits e.Bytes()
// followed by r.Body as one vectored frame — the concatenation is exactly
// what EncodeRequest produces, with no payload copy.
func AppendRequest(e *cdr.Encoder, r *Request) {
	putHeader(e, MsgRequest)
	e.PutString(r.BindingID)
	e.PutULong(r.SeqNo)
	e.PutULong(r.ReqID)
	e.PutLong(r.ClientRank)
	e.PutLong(r.ClientSize)
	e.PutString(r.ReplyAddr)
	e.PutString(r.ObjectKey)
	e.PutString(r.Operation)
	e.PutBool(r.Oneway)
	e.PutULong(r.DeadlineMS)
	// Trace context: always emitted (zero when tracing is off) so the
	// wire format is constant and the tracing-overhead comparison isolates
	// span-recording cost, not frame-size differences.
	e.PutULongLong(r.TraceID)
	e.PutULongLong(r.SpanID)
	e.PutSeqLen(len(r.DistIns))
	for _, s := range r.DistIns {
		e.PutLong(s.Param)
		e.PutLong(s.N)
		dist.EncodeLayout(e, s.Layout)
	}
	e.PutSeqLen(len(r.DistOuts))
	for _, s := range r.DistOuts {
		e.PutLong(s.Param)
		dist.EncodeTemplate(e, s.Tmpl)
	}
	// Body travels last on the wire so vectored sends need not re-encode
	// it; only its length prefix belongs to the header.
	e.PutSeqLen(len(r.Body))
}

// EncodeRequest serializes a Request message into one buffer.
func EncodeRequest(r *Request) []byte {
	e := cdr.NewEncoder(128 + len(r.Body))
	AppendRequest(e, r)
	e.PutRaw(r.Body)
	return e.Bytes()
}

// DecodeRequest parses a Request message. Body aliases the frame; the frame
// is owned by the decoded message from here on.
func DecodeRequest(frame []byte) (*Request, error) {
	r := new(Request)
	if err := DecodeRequestInto(r, frame); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRequestInto parses a Request message into r, overwriting it. It
// lets a caller that already owns Request storage (e.g. embedded in a
// larger message struct) decode without a separate allocation.
func DecodeRequestInto(r *Request, frame []byte) error {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgRequest); err != nil {
		return err
	}
	// The identifying fields repeat on every message of a binding's
	// lifetime; interning collapses them to one allocation per distinct
	// value instead of four per request. The fields are stored one by one
	// into the zeroed r, in wire order, rather than built as a literal and
	// copied in.
	*r = Request{}
	r.BindingID = d.GetStringInterned()
	r.SeqNo = d.GetULong()
	r.ReqID = d.GetULong()
	r.ClientRank = d.GetLong()
	r.ClientSize = d.GetLong()
	r.ReplyAddr = d.GetStringInterned()
	r.ObjectKey = d.GetStringInterned()
	r.Operation = d.GetStringInterned()
	r.Oneway = d.GetBool()
	r.DeadlineMS = d.GetULong()
	r.TraceID = d.GetULongLong()
	r.SpanID = d.GetULongLong()
	nIn := d.GetSeqLen(4)
	for i := 0; i < nIn; i++ {
		s := DistInSpec{Param: d.GetLong(), N: d.GetLong()}
		l, err := dist.DecodeLayout(&d)
		if err != nil {
			return fmt.Errorf("%w: dist-in %d: %v", ErrBadMessage, i, err)
		}
		// One index range on both sides of the transfer schedule. Whether the
		// layout spans the client's threads is the adapter's check, against
		// the ClientSize it gathers by.
		if l.N != int(s.N) {
			return fmt.Errorf("%w: dist-in %d: layout of %d elements announced as %d", ErrBadMessage, i, l.N, s.N)
		}
		s.Layout = l
		r.DistIns = append(r.DistIns, s)
	}
	nOut := d.GetSeqLen(4)
	for i := 0; i < nOut; i++ {
		s := DistOutSpec{Param: d.GetLong()}
		t, err := dist.DecodeTemplate(&d)
		if err != nil {
			return fmt.Errorf("%w: dist-out %d: %v", ErrBadMessage, i, err)
		}
		s.Tmpl = t
		r.DistOuts = append(r.DistOuts, s)
	}
	r.Body = d.GetOctets()
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// AppendReply encodes everything of a Reply except the Body bytes, ending
// with Body's length prefix (vectored-send counterpart of EncodeReply).
func AppendReply(e *cdr.Encoder, r *Reply) {
	putHeader(e, MsgReply)
	e.PutULong(r.ReqID)
	e.PutOctet(r.Status)
	e.PutString(r.Error)
	// Admission hint: always emitted (zero for non-shed replies) so the
	// wire format is constant.
	e.PutULong(r.RetryAfterMS)
	e.PutSeqLen(len(r.OutLens))
	for _, o := range r.OutLens {
		e.PutLong(o.Param)
		e.PutLong(o.N)
		dist.EncodeLayout(e, o.Layout)
	}
	e.PutSeqLen(len(r.Body))
}

// EncodeReply serializes a Reply message into one buffer.
func EncodeReply(r *Reply) []byte {
	e := cdr.NewEncoder(64 + len(r.Body))
	AppendReply(e, r)
	e.PutRaw(r.Body)
	return e.Bytes()
}

// DecodeReply parses a Reply message. Body aliases the frame.
func DecodeReply(frame []byte) (*Reply, error) {
	r := new(Reply)
	if err := DecodeReplyInto(r, frame); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReplyInto parses a Reply message into r, overwriting it (the
// allocation-free counterpart of DecodeReply). Body aliases the frame.
func DecodeReplyInto(r *Reply, frame []byte) error {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgReply); err != nil {
		return err
	}
	*r = Reply{}
	r.ReqID = d.GetULong()
	r.Status = d.GetOctet()
	r.Error = d.GetString()
	r.RetryAfterMS = d.GetULong()
	n := d.GetSeqLen(4)
	for i := 0; i < n; i++ {
		o := OutLen{Param: d.GetLong(), N: d.GetLong()}
		l, err := dist.DecodeLayout(&d)
		if err != nil {
			return fmt.Errorf("%w: out-len %d: %v", ErrBadMessage, i, err)
		}
		if l.N != int(o.N) {
			return fmt.Errorf("%w: out-len %d: layout of %d elements announced as %d", ErrBadMessage, i, l.N, o.N)
		}
		o.Layout = l
		r.OutLens = append(r.OutLens, o)
	}
	r.Body = d.GetOctets()
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// AppendArgStream encodes everything of an ArgStream except the Payload
// bytes, ending with Payload's length prefix. Sending e.Bytes() followed by
// a.Payload as one vectored frame matches EncodeArgStream byte for byte —
// the segment hot path never copies its payload into a framing buffer.
func AppendArgStream(e *cdr.Encoder, a *ArgStream) {
	putHeader(e, MsgArgStream)
	e.PutString(a.BindingID)
	e.PutULong(a.SeqNo)
	e.PutULong(a.ReqID)
	e.PutLong(a.Param)
	e.PutOctet(a.Dir)
	e.PutLong(a.Sender)
	// Chunk framing: always emitted (zero/false for single-frame moves) so
	// the wire format is constant.
	e.PutULong(a.ChunkOff)
	e.PutBool(a.More)
	e.PutSeqLen(len(a.Runs))
	for _, r := range a.Runs {
		e.PutLong(r.Global)
		e.PutLong(r.Len)
		e.PutLong(r.DstOff)
	}
	e.PutSeqLen(len(a.Payload))
}

// EncodeArgStream serializes an ArgStream message into one buffer.
func EncodeArgStream(a *ArgStream) []byte {
	e := cdr.NewEncoder(64 + len(a.Payload))
	AppendArgStream(e, a)
	e.PutRaw(a.Payload)
	return e.Bytes()
}

// DecodeArgStream parses an ArgStream message. Payload aliases the frame;
// the frame is owned by the decoded message from here on.
func DecodeArgStream(frame []byte) (*ArgStream, error) {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgArgStream); err != nil {
		return nil, err
	}
	a := &ArgStream{
		BindingID: d.GetStringInterned(),
		SeqNo:     d.GetULong(),
		ReqID:     d.GetULong(),
		Param:     d.GetLong(),
		Dir:       d.GetOctet(),
		Sender:    d.GetLong(),
		ChunkOff:  d.GetULong(),
		More:      d.GetBool(),
	}
	n := d.GetSeqLen(4)
	if n > 0 {
		a.Runs = make([]Run, 0, n)
	}
	for i := 0; i < n; i++ {
		a.Runs = append(a.Runs, Run{Global: d.GetLong(), Len: d.GetLong(), DstOff: d.GetLong()})
	}
	a.Payload = d.GetOctets()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return a, nil
}

// EncodeLocateRequest serializes a LocateRequest.
func EncodeLocateRequest(l *LocateRequest) []byte {
	e := cdr.NewEncoder(32)
	putHeader(e, MsgLocateRequest)
	e.PutULong(l.ReqID)
	e.PutString(l.ObjectKey)
	return e.Bytes()
}

// DecodeLocateRequest parses a LocateRequest.
func DecodeLocateRequest(frame []byte) (*LocateRequest, error) {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgLocateRequest); err != nil {
		return nil, err
	}
	l := &LocateRequest{ReqID: d.GetULong(), ObjectKey: d.GetStringInterned()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return l, nil
}

// EncodeLocateReply serializes a LocateReply.
func EncodeLocateReply(l *LocateReply) []byte {
	e := cdr.NewEncoder(16)
	putHeader(e, MsgLocateReply)
	e.PutULong(l.ReqID)
	e.PutBool(l.Found)
	return e.Bytes()
}

// DecodeLocateReply parses a LocateReply.
func DecodeLocateReply(frame []byte) (*LocateReply, error) {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgLocateReply); err != nil {
		return nil, err
	}
	l := &LocateReply{ReqID: d.GetULong(), Found: d.GetBool()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return l, nil
}

// EncodeCancelRequest serializes a CancelRequest.
func EncodeCancelRequest(c *CancelRequest) []byte {
	e := cdr.NewEncoder(32)
	putHeader(e, MsgCancelRequest)
	e.PutString(c.BindingID)
	e.PutULong(c.SeqNo)
	return e.Bytes()
}

// DecodeCancelRequest parses a CancelRequest.
func DecodeCancelRequest(frame []byte) (*CancelRequest, error) {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgCancelRequest); err != nil {
		return nil, err
	}
	c := &CancelRequest{BindingID: d.GetStringInterned(), SeqNo: d.GetULong()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return c, nil
}

// EncodeFaultNotice serializes a FaultNotice message.
func EncodeFaultNotice(f *FaultNotice) []byte {
	e := cdr.NewEncoder(48)
	putHeader(e, MsgFault)
	e.PutLong(f.Rank)
	e.PutString(f.Phase)
	e.PutString(f.Reason)
	return e.Bytes()
}

// DecodeFaultNotice parses a FaultNotice message.
func DecodeFaultNotice(frame []byte) (*FaultNotice, error) {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgFault); err != nil {
		return nil, err
	}
	f := &FaultNotice{Rank: d.GetLong(), Phase: d.GetString(), Reason: d.GetString()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return f, nil
}

// EncodeShutdown serializes a Shutdown message.
func EncodeShutdown(s *Shutdown) []byte {
	e := cdr.NewEncoder(32)
	putHeader(e, MsgShutdown)
	e.PutString(s.Reason)
	return e.Bytes()
}

// DecodeShutdown parses a Shutdown message.
func DecodeShutdown(frame []byte) (*Shutdown, error) {
	var d cdr.Decoder
	if err := expect(&d, frame, MsgShutdown); err != nil {
		return nil, err
	}
	s := &Shutdown{Reason: d.GetString()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return s, nil
}
