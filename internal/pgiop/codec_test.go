package pgiop

import (
	"testing"

	"pardis/internal/cdr"
)

// codecRequest and codecReply are the headers of one 64-byte echo call —
// what every invocation of the benchmark's round-trip workloads carries.
var (
	codecRequest = &Request{
		BindingID: "inproc://client/1#1", SeqNo: 41, ReqID: 42, ClientSize: 1,
		ReplyAddr: "inproc://client/1", ObjectKey: "bench-echo", Operation: "echo",
		Body: make([]byte, 72),
	}
	codecReply = &Reply{ReqID: 42, Body: make([]byte, 72)}
)

// BenchmarkRequestCodec times a request header's two halves: AppendRequest
// into a pooled encoder, and DecodeRequestInto of the whole frame.
func BenchmarkRequestCodec(b *testing.B) {
	frame := EncodeRequest(codecRequest)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := cdr.GetEncoder(128)
			AppendRequest(e, codecRequest)
			e.Release()
		}
	})
	b.Run("decode", func(b *testing.B) {
		var r Request
		for i := 0; i < b.N; i++ {
			if err := DecodeRequestInto(&r, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplyCodec is BenchmarkRequestCodec for a reply header.
func BenchmarkReplyCodec(b *testing.B) {
	frame := EncodeReply(codecReply)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := cdr.GetEncoder(128)
			AppendReply(e, codecReply)
			e.Release()
		}
	})
	b.Run("decode", func(b *testing.B) {
		var r Reply
		for i := 0; i < b.N; i++ {
			if err := DecodeReplyInto(&r, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHeaderCodecAllocFree: once a binding's identity strings are in the
// intern table, encoding a request header and decoding a request or a reply
// allocates nothing — the decoder lives on the caller's stack and every
// identity field is a table hit.
func TestHeaderCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	reqFrame, repFrame := EncodeRequest(codecRequest), EncodeReply(codecReply)
	var req Request
	var rep Reply
	if err := DecodeRequestInto(&req, reqFrame); err != nil { // warms the table
		t.Fatal(err)
	}
	cdr.GetEncoder(128).Release()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"DecodeRequestInto", func() { _ = DecodeRequestInto(&req, reqFrame) }},
		{"DecodeReplyInto", func() { _ = DecodeReplyInto(&rep, repFrame) }},
		{"AppendRequest", func() {
			e := cdr.GetEncoder(128)
			AppendRequest(e, codecRequest)
			e.Release()
		}},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/run on a warm intern table, want 0", c.name, allocs)
		}
	}
	if req.Operation != codecRequest.Operation || rep.ReqID != codecReply.ReqID {
		t.Fatalf("decoded %+v / %+v", req, rep)
	}
}
