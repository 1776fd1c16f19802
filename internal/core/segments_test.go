package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
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

// TestSendSegmentsSmallMovesOneFrameEach: unpinned, a move no larger than
// the chunk bound travels as exactly one frame.
func TestSendSegmentsSmallMovesOneFrameEach(t *testing.T) {
	got := sendThreeMoves(t, TransferPolicy{}, 8192) // 64 KiB of doubles
	for thread, frames := range got {
		if len(frames) != 1 || frames[0].More || frames[0].ChunkOff != 0 {
			t.Fatalf("thread %d received %d frames (%+v), want one whole move", thread, len(frames), frames)
		}
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

// TestTransferChoicesAreAFunctionOfTheTransfer: the sender shape of the
// benchmark's bulk8m workload — rank 1 of a 1:3 client shipping its 6 MiB
// to a 2-thread BLOCK server, nothing pinned — emits the same frames every
// time: 2 MiB and 4 MiB moves cut at 256 KiB, never more than two chunks of
// one move encoded at once.
func TestTransferChoicesAreAFunctionOfTheTransfer(t *testing.T) {
	const n = 1 << 20
	src := dist.Proportions(1, 3).Layout(n, 2)
	holder := dseq.Wrap(rts.NewChanGroup("client", 2).Thread(1), src,
		make([]float64, src.Count(1)), dseq.Float64Codec{})
	req := &pgiop.Request{BindingID: "b-1", SeqNo: 1}
	type frame struct {
		off, payload int
		more         bool
	}
	var first [2][]frame
	for run := 0; run < 20; run++ {
		ep := &recordingEP{}
		ResetStreamPeak()
		err := SendSegments(TransferPolicy{}, NewRouter(ep), req, 0, pgiop.DirIn, holder, 1,
			dist.BlockTemplate().Layout(n, 2),
			func(thread int) (nexus.Addr, uint32) { return nexus.Addr(fmt.Sprintf("t%d", thread)), 0 })
		if err != nil {
			t.Fatal(err)
		}
		if peak := StreamPeakBytes(); peak <= 0 || peak > 2*defaultStreamChunk {
			t.Fatalf("run %d: peak encoder residency %d bytes, want in (0, %d]", run, peak, 2*defaultStreamChunk)
		}
		var got [2][]frame
		for i, b := range ep.frames {
			a, err := pgiop.DecodeArgStream(b)
			if err != nil {
				t.Fatalf("run %d frame %d: %v", run, i, err)
			}
			thread := int(ep.to[i][1] - '0')
			got[thread] = append(got[thread], frame{int(a.ChunkOff), len(a.Payload), a.More})
		}
		for thread, want := range [2]int{8, 16} {
			frames := got[thread]
			if len(frames) != want {
				t.Fatalf("run %d: thread %d received %d frames, want %d", run, thread, len(frames), want)
			}
			off := 0
			for i, f := range frames {
				if f.off != off || f.more != (i < want-1) {
					t.Fatalf("run %d: thread %d chunk %d: offset %d more=%v, want offset %d", run, thread, i, f.off, f.more, off)
				}
				off += f.payload / 8
			}
		}
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d sent different frames than run 0:\n%v\n%v", run, got, first)
		}
	}
}

// gateEP is a send-only endpoint whose SendV announces itself on entered and
// then blocks until released, recording how many senders were ever inside at
// once.
type gateEP struct {
	recordingEP
	safe             bool
	entered, release chan struct{}
	inside, most     int // under recordingEP.mu
}

func (e *gateEP) ConcurrentSendSafe() bool { return e.safe }

func (e *gateEP) SendV(nexus.Addr, ...[]byte) error {
	e.mu.Lock()
	e.inside++
	e.most = max(e.most, e.inside)
	e.mu.Unlock()
	e.entered <- struct{}{}
	<-e.release
	e.mu.Lock()
	e.inside--
	e.mu.Unlock()
	return nil
}

// TestFanWidthFollowsProcessors: an unpinned transfer of 8 one-frame moves
// has min(8, GOMAXPROCS) sends in flight at once, a pin overrides that, and
// a fabric whose sends are not concurrency-safe gets one whatever is asked.
func TestFanWidthFollowsProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const moves = 8
	for _, c := range []struct {
		procs, pin int
		safe       bool
		want       int
	}{
		{procs: 1, safe: true, want: 1},
		{procs: 2, safe: true, want: 2},
		{procs: 4, safe: true, want: 4},
		{procs: 4, pin: 3, safe: true, want: 3},
		{procs: 4, safe: false, want: 1},
		{procs: 4, pin: 3, safe: false, want: 1},
	} {
		runtime.GOMAXPROCS(c.procs)
		ep := &gateEP{safe: c.safe, entered: make(chan struct{}), release: make(chan struct{})}
		holder := dseq.Sequential(make([]float64, 16*moves), dseq.Float64Codec{})
		done := make(chan error, 1)
		go func() {
			done <- SendSegments(TransferPolicy{TransferWorkers: c.pin}, NewRouter(ep),
				&pgiop.Request{BindingID: "b-1"}, 0, pgiop.DirIn, holder, 0,
				dist.BlockTemplate().Layout(16*moves, moves),
				func(thread int) (nexus.Addr, uint32) { return "peer", 0 })
		}()
		// Hold the gate until c.want senders stand inside it together, then
		// let one through at a time; each frees a worker for the next move.
		for i := 0; i < c.want; i++ {
			<-ep.entered
		}
		// A sender wider than c.want has more workers runnable now; yield
		// so they reach the gate and are counted before anything is released.
		for i := 0; i < 4*moves; i++ {
			runtime.Gosched()
		}
		for sent := 0; sent < moves; sent++ {
			ep.release <- struct{}{}
			if sent+c.want < moves {
				<-ep.entered
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if ep.most != c.want {
			t.Errorf("GOMAXPROCS %d, pin %d, safe %v: %d sends in flight at once, want %d",
				c.procs, c.pin, c.safe, ep.most, c.want)
		}
	}
}
