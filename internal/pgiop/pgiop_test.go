package pgiop

import (
	"errors"
	"math"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
)

func TestRequestRoundTrip(t *testing.T) {
	in := &Request{
		BindingID:  "bind-42",
		SeqNo:      7,
		ReqID:      1001,
		ClientRank: 2,
		ClientSize: 4,
		ReplyAddr:  "inproc://client/2",
		ObjectKey:  "obj:direct_solver",
		Operation:  "solve",
		Oneway:     false,
		Body:       []byte{1, 2, 3, 4},
		DistIns: []DistInSpec{
			{Param: 0, N: 100, Layout: dist.BlockTemplate().Layout(100, 4)},
			{Param: 1, N: 50, Layout: dist.CyclicTemplate().Layout(50, 4)},
		},
		DistOuts: []DistOutSpec{
			{Param: 2, Tmpl: dist.Proportions(1, 2, 3, 4)},
		},
	}
	out, err := DecodeRequest(EncodeRequest(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.BindingID != in.BindingID || out.SeqNo != in.SeqNo || out.ReqID != in.ReqID ||
		out.ClientRank != 2 || out.ClientSize != 4 || out.ReplyAddr != in.ReplyAddr ||
		out.ObjectKey != in.ObjectKey || out.Operation != in.Operation || out.Oneway {
		t.Fatalf("header mismatch: %+v", out)
	}
	if string(out.Body) != string(in.Body) {
		t.Fatal("body mismatch")
	}
	if len(out.DistIns) != 2 || out.DistIns[0].N != 100 || !out.DistIns[0].Layout.Equal(in.DistIns[0].Layout) {
		t.Fatalf("dist-ins mismatch: %+v", out.DistIns)
	}
	if !out.DistIns[1].Layout.Equal(in.DistIns[1].Layout) {
		t.Fatal("cyclic layout lost")
	}
	if len(out.DistOuts) != 1 || out.DistOuts[0].Tmpl.Kind != dist.Weighted ||
		len(out.DistOuts[0].Tmpl.Weights) != 4 {
		t.Fatalf("dist-outs mismatch: %+v", out.DistOuts)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	in := &Reply{
		ReqID:  9,
		Status: StatusException,
		Error:  "servant raised: no such DNA",
		Body:   []byte{0xAA},
		OutLens: []OutLen{
			{Param: 1, N: 256, Layout: dist.BlockTemplate().Layout(256, 8)},
		},
	}
	out, err := DecodeReply(EncodeReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ReqID != 9 || out.Status != StatusException || out.Error != in.Error ||
		len(out.Body) != 1 || out.Body[0] != 0xAA {
		t.Fatalf("reply mismatch: %+v", out)
	}
	if len(out.OutLens) != 1 || out.OutLens[0].N != 256 || !out.OutLens[0].Layout.Equal(in.OutLens[0].Layout) {
		t.Fatalf("outlens mismatch: %+v", out.OutLens)
	}
}

func TestArgStreamRoundTrip(t *testing.T) {
	in := &ArgStream{
		BindingID: "b",
		SeqNo:     3,
		ReqID:     77,
		Param:     1,
		Dir:       DirOut,
		Runs:      []Run{{Global: 0, Len: 10, DstOff: 0}, {Global: 40, Len: 5, DstOff: 10}},
		Payload:   []byte{9, 9, 9},
	}
	out, err := DecodeArgStream(EncodeArgStream(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.BindingID != "b" || out.SeqNo != 3 || out.ReqID != 77 || out.Param != 1 || out.Dir != DirOut {
		t.Fatalf("argstream header mismatch: %+v", out)
	}
	if len(out.Runs) != 2 || out.Runs[1] != (Run{40, 5, 10}) {
		t.Fatalf("runs mismatch: %+v", out.Runs)
	}
	if string(out.Payload) != string(in.Payload) {
		t.Fatal("payload mismatch")
	}
}

// TestTraceContextRoundTrip: the v2 trace fields survive encode/decode.
func TestTraceContextRoundTrip(t *testing.T) {
	in := &Request{
		BindingID: "b", SeqNo: 1, ReqID: 2, Operation: "op",
		TraceID: 0xDEADBEEFCAFE0001, SpanID: 0x1234567890ABCDEF,
		Body: []byte{1},
	}
	out, err := DecodeRequest(EncodeRequest(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID {
		t.Fatalf("trace context lost: got %x/%x, want %x/%x",
			out.TraceID, out.SpanID, in.TraceID, in.SpanID)
	}
}

// TestRetryHintRoundTrip: the admission hint survives encode/decode.
func TestRetryHintRoundTrip(t *testing.T) {
	in := &Reply{ReqID: 2, Status: StatusOverloaded, Error: "overloaded", RetryAfterMS: 15}
	out, err := DecodeReply(EncodeReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusOverloaded || out.RetryAfterMS != 15 {
		t.Fatalf("retry hint lost: %+v", out)
	}
}

// TestChunkFramingRoundTrip: the chunk fields survive encode/decode.
func TestChunkFramingRoundTrip(t *testing.T) {
	in := &ArgStream{
		BindingID: "b", SeqNo: 1, Param: 0, Dir: DirIn, Sender: 2,
		ChunkOff: 4096, More: true,
		Runs:    []Run{{Global: 4096, Len: 16, DstOff: 96}},
		Payload: []byte{5},
	}
	out, err := DecodeArgStream(EncodeArgStream(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ChunkOff != 4096 || !out.More {
		t.Fatalf("chunk framing lost: got %d/%v", out.ChunkOff, out.More)
	}
}

// TestFutureVersionRejected: a frame whose version byte is anything but
// this build's Version — newer or older — is refused outright rather than
// misparsed, by PeekType and so by every decoder.
func TestFutureVersionRejected(t *testing.T) {
	fr := EncodeRequest(&Request{BindingID: "b", Operation: "op"})
	for v := 0; v < 256; v++ {
		fr[2] = byte(v)
		_, perr := PeekType(fr)
		_, derr := DecodeRequest(fr)
		if byte(v) == Version {
			if perr != nil || derr != nil {
				t.Fatalf("own version %d rejected: %v, %v", v, perr, derr)
			}
			continue
		}
		if !errors.Is(perr, ErrBadMessage) {
			t.Fatalf("version %d accepted by PeekType", v)
		}
		if !errors.Is(derr, ErrBadMessage) {
			t.Fatalf("version %d accepted by DecodeRequest", v)
		}
	}
}

func TestLocateAndControlMessages(t *testing.T) {
	lr, err := DecodeLocateRequest(EncodeLocateRequest(&LocateRequest{ReqID: 5, ObjectKey: "k"}))
	if err != nil || lr.ReqID != 5 || lr.ObjectKey != "k" {
		t.Fatalf("locate request: %+v %v", lr, err)
	}
	lp, err := DecodeLocateReply(EncodeLocateReply(&LocateReply{ReqID: 5, Found: true}))
	if err != nil || !lp.Found {
		t.Fatalf("locate reply: %+v %v", lp, err)
	}
	cr, err := DecodeCancelRequest(EncodeCancelRequest(&CancelRequest{BindingID: "b", SeqNo: 2}))
	if err != nil || cr.BindingID != "b" || cr.SeqNo != 2 {
		t.Fatalf("cancel: %+v %v", cr, err)
	}
	sd, err := DecodeShutdown(EncodeShutdown(&Shutdown{Reason: "done"}))
	if err != nil || sd.Reason != "done" {
		t.Fatalf("shutdown: %+v %v", sd, err)
	}
}

func TestPeekType(t *testing.T) {
	fr := EncodeReply(&Reply{ReqID: 1})
	typ, err := PeekType(fr)
	if err != nil || typ != MsgReply {
		t.Fatalf("peek = %v, %v", typ, err)
	}
	if _, err := PeekType([]byte{'X', 'Y', 1, 1}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("bad magic accepted")
	}
	if _, err := PeekType([]byte{'P', 'G', 99, 1}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("bad version accepted")
	}
	if _, err := PeekType([]byte{'P', 'G', Version, 200}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("bad type accepted")
	}
	if _, err := PeekType(nil); !errors.Is(err, ErrBadMessage) {
		t.Fatal("empty frame accepted")
	}
}

func TestWrongTypeRejected(t *testing.T) {
	fr := EncodeReply(&Reply{})
	if _, err := DecodeRequest(fr); !errors.Is(err, ErrBadMessage) {
		t.Fatal("reply decoded as request")
	}
}

func TestTruncatedFramesRejected(t *testing.T) {
	frames := [][]byte{
		EncodeRequest(&Request{BindingID: "b", Operation: "op", Body: []byte{1},
			DistIns: []DistInSpec{{Param: 0, N: 4, Layout: dist.BlockTemplate().Layout(4, 2)}}}),
		EncodeReply(&Reply{ReqID: 1, Body: []byte{2}, OutLens: []OutLen{{Param: 0, N: 4, Layout: dist.BlockTemplate().Layout(4, 2)}}}),
		EncodeArgStream(&ArgStream{BindingID: "b", Runs: []Run{{0, 4, 0}}, Payload: []byte{1, 2}}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeRequest(b); return err },
		func(b []byte) error { _, err := DecodeReply(b); return err },
		func(b []byte) error { _, err := DecodeArgStream(b); return err },
	}
	for i, fr := range frames {
		for cut := 4; cut < len(fr); cut++ {
			if err := decoders[i](fr[:cut]); err == nil {
				t.Fatalf("frame %d cut at %d decoded successfully", i, cut)
			}
		}
	}
}

func TestHostileLayoutRejected(t *testing.T) {
	// A layout whose ranges don't cover N must be rejected.
	in := &Request{DistIns: []DistInSpec{{Param: 0, N: 10, Layout: dist.BlockTemplate().Layout(10, 2)}}}
	fr := EncodeRequest(in)
	// Corrupt a count deep in the frame: find and flip the last byte of
	// the payload (a count field).
	fr[len(fr)-1] ^= 0x01
	if _, err := DecodeRequest(fr); err == nil {
		t.Fatal("corrupted layout accepted")
	}
}

// craftRequest is a request frame whose distribution specs are written raw by
// specs: everything AppendRequest writes for a spec-less request up to its
// last three fields — the dist-in, dist-out and body counts — which specs
// writes instead.
func craftRequest(clientSize int32, specs func(e *cdr.Encoder)) []byte {
	hdr := cdr.NewEncoder(128)
	AppendRequest(hdr, &Request{BindingID: "b", ClientSize: clientSize, Operation: "op"})
	e := cdr.NewEncoder(256)
	e.PutRaw(hdr.Bytes()[:hdr.Len()-12])
	specs(e)
	return e.Bytes()
}

// craftReply is craftRequest for a reply: outLens writes the out-length and
// body counts and what lies between.
func craftReply(outLens func(e *cdr.Encoder)) []byte {
	hdr := cdr.NewEncoder(64)
	AppendReply(hdr, &Reply{ReqID: 1})
	e := cdr.NewEncoder(128)
	e.PutRaw(hdr.Bytes()[:hdr.Len()-8])
	outLens(e)
	return e.Bytes()
}

// rawLayout writes a layout field by field; ranges are (start, count) pairs,
// written as a sequence unless the kind is CYCLIC.
func rawLayout(e *cdr.Encoder, kind dist.Kind, n, p, root int32, ranges ...int32) {
	e.PutOctet(byte(kind))
	e.PutLong(n)
	e.PutLong(p)
	e.PutLong(root)
	if kind == dist.Cyclic {
		return
	}
	e.PutSeqLen(len(ranges) / 2)
	for _, v := range ranges {
		e.PutLong(v)
	}
}

func rawTemplate(e *cdr.Encoder, kind dist.Kind, root int32, weights ...float64) {
	e.PutOctet(byte(kind))
	e.PutLong(root)
	e.PutDoubles(weights)
}

// oneDistIn and oneDistOut write a request's spec lists holding one spec.
func oneDistIn(n int32, layout func(e *cdr.Encoder)) func(e *cdr.Encoder) {
	return func(e *cdr.Encoder) {
		e.PutSeqLen(1)
		e.PutLong(0) // param
		e.PutLong(n)
		layout(e)
		e.PutSeqLen(0) // dist-outs
		e.PutSeqLen(0) // body
	}
}

func oneDistOut(tmpl func(e *cdr.Encoder)) func(e *cdr.Encoder) {
	return func(e *cdr.Encoder) {
		e.PutSeqLen(0) // dist-ins
		e.PutSeqLen(1)
		e.PutLong(0) // param
		tmpl(e)
		e.PutSeqLen(0) // body
	}
}

func oneOutLen(n int32, layout func(e *cdr.Encoder)) func(e *cdr.Encoder) {
	return func(e *cdr.Encoder) {
		e.PutSeqLen(1)
		e.PutLong(0) // param
		e.PutLong(n)
		layout(e)
		e.PutSeqLen(0) // body
	}
}

// TestCraftedDistributionsRejected: a distribution no receiver could
// instantiate — a layout Locate would run off, a template Layout would panic
// on for any thread count, a layout of another length than its spec or
// out-length announces — is a bad message at decode, before the POA or the
// ORB ever sees it. (Whether a spec fits the client's thread count is the
// adapter's check, TestMisfitDistributionRejected in internal/poa.)
func TestCraftedDistributionsRejected(t *testing.T) {
	block := func(n, p int32, ranges ...int32) func(e *cdr.Encoder) {
		return func(e *cdr.Encoder) { rawLayout(e, dist.Block, n, p, 0, ranges...) }
	}
	tmpl := func(kind dist.Kind, root int32, weights ...float64) func(e *cdr.Encoder) {
		return func(e *cdr.Encoder) { rawTemplate(e, kind, root, weights...) }
	}
	req := func(b []byte) error { _, err := DecodeRequest(b); return err }
	rep := func(b []byte) error { _, err := DecodeReply(b); return err }
	cases := []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"dist-in ranges off the start", craftRequest(2, oneDistIn(4, block(4, 2, 3, 2, 9, 2))), req},
		{"dist-in ranges overlap", craftRequest(2, oneDistIn(4, block(4, 2, 0, 2, 1, 2))), req},
		{"dist-in ranges leave a gap", craftRequest(2, oneDistIn(4, block(4, 2, 0, 1, 2, 3))), req},
		{"dist-in unknown kind", craftRequest(2, oneDistIn(4, func(e *cdr.Encoder) { rawLayout(e, 9, 4, 2, 0, 0, 2, 2, 2) })), req},
		{"dist-in collapsed off its root", craftRequest(2, oneDistIn(4, func(e *cdr.Encoder) { rawLayout(e, dist.Collapsed, 4, 2, 1, 0, 4, 4, 0) })), req},
		{"dist-in collapsed root out of range", craftRequest(2, oneDistIn(4, func(e *cdr.Encoder) { rawLayout(e, dist.Collapsed, 4, 2, 5, 0, 4, 4, 0) })), req},
		{"dist-in layout of other length", craftRequest(2, oneDistIn(8, block(4, 2, 0, 2, 2, 2))), req},
		{"dist-in negative length", craftRequest(2, oneDistIn(-4, func(e *cdr.Encoder) { rawLayout(e, dist.Cyclic, -4, 2, 0) })), req},
		{"dist-out negative weight", craftRequest(2, oneDistOut(tmpl(dist.Weighted, 0, 1, -1))), req},
		{"dist-out NaN weight", craftRequest(2, oneDistOut(tmpl(dist.Weighted, 0, 1, math.NaN()))), req},
		{"dist-out infinite weight", craftRequest(2, oneDistOut(tmpl(dist.Weighted, 0, 1, math.Inf(1)))), req},
		{"dist-out weights sum past float", craftRequest(2, oneDistOut(tmpl(dist.Weighted, 0, math.MaxFloat64, math.MaxFloat64))), req},
		{"dist-out collapsed negative root", craftRequest(2, oneDistOut(tmpl(dist.Collapsed, -1))), req},
		{"dist-out weighted without weights", craftRequest(2, oneDistOut(tmpl(dist.Weighted, 0))), req},
		{"dist-out unknown kind", craftRequest(2, oneDistOut(tmpl(7, 0))), req},
		{"out-len ranges off the start", craftReply(oneOutLen(4, block(4, 2, 3, 2, 9, 2))), rep},
		{"out-len negative length", craftReply(oneOutLen(-1, block(4, 2, 0, 2, 2, 2))), rep},
		{"out-len layout of other length", craftReply(oneOutLen(6, block(4, 2, 0, 2, 2, 2))), rep},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.frame); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decode = %v, want ErrBadMessage", err)
			}
		})
	}
	// The same frames, well formed, decode: the rows above fail on their
	// one bad field, not on the crafting.
	for i, err := range []error{
		req(craftRequest(2, oneDistIn(4, block(4, 2, 0, 2, 2, 2)))),
		req(craftRequest(2, oneDistIn(4, func(e *cdr.Encoder) { rawLayout(e, dist.Collapsed, 4, 2, 1, 0, 0, 0, 4) }))),
		req(craftRequest(2, oneDistOut(tmpl(dist.Weighted, 0, 1, 0)))),
		req(craftRequest(2, oneDistOut(tmpl(dist.Collapsed, 1)))),
		rep(craftReply(oneOutLen(4, block(4, 2, 0, 2, 2, 2)))),
	} {
		if err != nil {
			t.Errorf("well-formed frame %d rejected: %v", i, err)
		}
	}
}
