package core

import (
	"fmt"
	"sync"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
)

// recordingEP is a send-only endpoint that keeps every frame it is handed,
// in arrival order, and declares its sends safe for concurrent use.
type recordingEP struct {
	mu     sync.Mutex
	to     []nexus.Addr
	frames [][]byte
}

func (e *recordingEP) Addr() nexus.Addr                   { return "rec" }
func (e *recordingEP) Send(to nexus.Addr, b []byte) error { return e.SendV(to, b) }
func (e *recordingEP) Recv() (nexus.Frame, error)         { return nexus.Frame{}, nexus.ErrClosed }
func (e *recordingEP) Poll() (nexus.Frame, bool, error)   { return nexus.Frame{}, false, nil }
func (e *recordingEP) Close() error                       { return nil }
func (e *recordingEP) ConcurrentSendSafe() bool           { return true }

func (e *recordingEP) SendV(to nexus.Addr, bufs ...[]byte) error {
	var frame []byte
	for _, b := range bufs {
		frame = append(frame, b...)
	}
	e.mu.Lock()
	e.to = append(e.to, to)
	e.frames = append(e.frames, frame)
	e.mu.Unlock()
	return nil
}

// sendThreeMoves ships an n-double sequential holder to a 3-thread block
// layout under tp and returns each destination's ArgStream frames in the
// order they were sent, after checking the header fields every frame of the
// transfer must carry.
func sendThreeMoves(t *testing.T, tp TransferPolicy, n int) [3][]*pgiop.ArgStream {
	t.Helper()
	ep := &recordingEP{}
	holder := dseq.Sequential(make([]float64, n), dseq.Float64Codec{})
	req := &pgiop.Request{BindingID: "b-1", SeqNo: 7}
	err := SendSegments(tp, NewRouter(ep), req, 2, pgiop.DirOut, holder, 0,
		dist.BlockTemplate().Layout(n, 3),
		func(thread int) (nexus.Addr, uint32) {
			return nexus.Addr(fmt.Sprintf("t%d", thread)), uint32(100 + thread)
		})
	if err != nil {
		t.Fatal(err)
	}
	var got [3][]*pgiop.ArgStream
	for i, frame := range ep.frames {
		a, err := pgiop.DecodeArgStream(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var thread int
		if _, err := fmt.Sscanf(string(ep.to[i]), "t%d", &thread); err != nil || thread < 0 || thread > 2 {
			t.Fatalf("frame %d sent to %q", i, ep.to[i])
		}
		if a.BindingID != "b-1" || a.SeqNo != 7 || a.Param != 2 || a.Dir != pgiop.DirOut ||
			a.Sender != 0 || a.ReqID != uint32(100+thread) {
			t.Fatalf("frame %d to thread %d carries the wrong stream key: %+v", i, thread, a)
		}
		got[thread] = append(got[thread], a)
	}
	return got
}

// TestSendSegmentsSmallMovesOneFrameEach: a move set of at most 64 KiB in
// total travels as exactly one frame per move, and the decision never
// touches the chunk-size tuner — small payloads stay off its hot path.
func TestSendSegmentsSmallMovesOneFrameEach(t *testing.T) {
	keys := len(streamSel.Snapshot())
	got := sendThreeMoves(t, TransferPolicy{}, 8192) // 64 KiB of doubles
	for thread, frames := range got {
		if len(frames) != 1 || frames[0].More || frames[0].ChunkOff != 0 {
			t.Fatalf("thread %d received %d frames (%+v), want one whole move", thread, len(frames), frames)
		}
	}
	if n := len(streamSel.Snapshot()); n != keys {
		t.Fatalf("chunk-size tuner grew from %d to %d keys on a 64 KiB transfer", keys, n)
	}
}

// TestSendSegmentsChunkedContract is the contract ORB.sendSegments and
// POA.encodeResults both inherit from the one sender: at a pinned chunk
// every move is cut into ceil(elements/chunk) frames, each destination
// sees its chunks in offset order with More set on all but the last, and no
// move ever holds more than two chunks of encoded payload.
func TestSendSegmentsChunkedContract(t *testing.T) {
	const n, chunk = 1000, 1 << 10 // moves of 334, 333, 333 doubles; 128 per chunk
	ResetStreamPeak()
	got := sendThreeMoves(t, TransferPolicy{TransferWorkers: 2, StreamChunkBytes: chunk}, n)
	layout := dist.BlockTemplate().Layout(n, 3)
	for thread, frames := range got {
		if len(frames) != 3 {
			t.Fatalf("thread %d received %d frames, want 3", thread, len(frames))
		}
		off := 0
		for i, a := range frames {
			if int(a.ChunkOff) != off || a.More != (i < len(frames)-1) {
				t.Fatalf("thread %d chunk %d: offset %d more=%v, want offset %d", thread, i, a.ChunkOff, a.More, off)
			}
			for _, r := range a.Runs {
				off += int(r.Len)
			}
			if len(a.Payload) > chunk {
				t.Fatalf("thread %d chunk %d carries %d payload bytes, over the %d-byte chunk", thread, i, len(a.Payload), chunk)
			}
		}
		if off != layout.Count(thread) {
			t.Fatalf("thread %d received %d elements, owns %d", thread, off, layout.Count(thread))
		}
	}
	if peak := StreamPeakBytes(); peak <= 0 || peak > 2*chunk {
		t.Fatalf("peak encoder residency %d bytes, want in (0, %d]", peak, 2*chunk)
	}
}
