package pgiop

import (
	"testing"

	"pardis/internal/dist"
)

// FuzzDecode feeds arbitrary bytes to the decoders a peer can reach:
// PeekType, then the Decode* that matches the classified type. The property
// is that hostile input yields an error or a value — never a panic, and
// never an allocation sized by a length field the frame cannot back (the
// fuzzer's memory limit is what notices the latter).
func FuzzDecode(f *testing.F) {
	f.Add(EncodeRequest(&Request{
		BindingID: "b-7", SeqNo: 3, ReqID: 9, ClientRank: 1, ClientSize: 2,
		ReplyAddr: "inproc://c/1", ObjectKey: "obj:k", Operation: "scale",
		DeadlineMS: 250, TraceID: 0xfeed, SpanID: 0xbeef, Body: []byte{1, 2, 3},
		DistIns:  []DistInSpec{{Param: 1, N: 16, Layout: dist.BlockTemplate().Layout(16, 2)}},
		DistOuts: []DistOutSpec{{Param: 2, Tmpl: dist.CyclicTemplate()}},
	}))
	f.Add(EncodeReply(&Reply{
		ReqID: 9, Status: StatusException, Error: "boom", RetryAfterMS: 15, Body: []byte{4, 5},
		OutLens: []OutLen{{Param: 2, N: 8, Layout: dist.BlockTemplate().Layout(8, 2)}},
	}))
	f.Add(EncodeArgStream(&ArgStream{
		BindingID: "b-7", SeqNo: 3, ReqID: 9, Param: 1, Dir: DirIn, Sender: 1,
		ChunkOff: 4096, More: true,
		Runs:    []Run{{Global: 4096, Len: 2, DstOff: 96}},
		Payload: []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2},
	}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, err := PeekType(frame)
		if err != nil {
			return
		}
		switch typ {
		case MsgRequest:
			DecodeRequest(frame)
		case MsgReply:
			DecodeReply(frame)
		case MsgArgStream:
			DecodeArgStream(frame)
		case MsgLocateRequest:
			DecodeLocateRequest(frame)
		case MsgLocateReply:
			DecodeLocateReply(frame)
		case MsgCancelRequest:
			DecodeCancelRequest(frame)
		case MsgShutdown:
			DecodeShutdown(frame)
		case MsgFault:
			DecodeFaultNotice(frame)
		}
	})
}
