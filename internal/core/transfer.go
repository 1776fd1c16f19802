package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
)

// TransferPolicy is how one side of a binding ships the segments of a
// distributed argument. ORB (in-arguments) and POA (out-results) embed it,
// so both sides are configured by the same two fields and run the same
// sender, SendSegments. Each field has two states: zero, the default,
// leaves the choice to a rule over what the sender can see (fanWidth,
// streamChunk); a positive value pins it, which tests use to exercise
// chunking and fan-out on small data.
type TransferPolicy struct {
	// TransferWorkers is the fan-out width: how many goroutines encode and
	// send the per-destination moves of one argument; zero means one per
	// move, up to GOMAXPROCS. Widths above 1 apply only when the fabric's
	// sends are safe for concurrent use (see Router.ConcurrentSendSafe);
	// elsewhere every move is sent from the calling goroutine whatever
	// this says.
	TransferWorkers int

	// StreamChunkBytes bounds the payload bytes per ArgStream frame of one
	// move; zero means 256 KiB. A move no larger than the bound is one
	// frame.
	StreamChunkBytes int
}

// SendSegments ships rank's local elements of holder to the threads that
// own them under the peer layout, as the ArgStream frames of (req's binding
// and sequence number, param, dir). dest names each peer thread's address
// and the request ID its frames carry (a client thread matches out-segments
// by its own request ID; in-segments carry none). The exchange schedule
// comes from the process-wide cache, so repeated invocations with the same
// shapes skip construction; the per-destination moves fan out across
// tp.TransferWorkers goroutines, and each move streams as chunks of at most
// tp.StreamChunkBytes — encode of chunk k+1 overlapping the send of chunk k,
// so no move ever holds more than two chunks of encoded payload.
func SendSegments(tp TransferPolicy, r *Router, req *pgiop.Request, param int, dir byte,
	holder dseq.Distributed, rank int, peer dist.Layout, dest func(thread int) (nexus.Addr, uint32)) error {

	moves := dist.Cached(holder.DLayout(), peer).From(rank)
	safe := r.ConcurrentSendSafe()
	elemSize := holder.ElemSizeHint()
	workers := fanWidth(tp.TransferWorkers, safe, len(moves))
	chunk := streamChunk(tp.StreamChunkBytes)
	// Only scalar stream-key fields are captured, not req itself: the
	// closure outlives the frame (worker goroutines), and capturing req
	// would force every InvokeNB's request header to the heap — including
	// invocations with no distributed arguments at all.
	spec := streamSpec{
		BindingID: req.BindingID,
		SeqNo:     req.SeqNo,
		Param:     int32(param),
		Dir:       dir,
		Sender:    int32(rank),
	}
	return fanOutMoves(workers, moves, func(m *dist.Move, iov *[2][]byte) error {
		spec := spec
		var addr nexus.Addr
		addr, spec.ReqID = dest(m.To)
		if err := streamMove(r, addr, holder, m, spec, chunk, elemSize, safe, iov); err != nil {
			return fmt.Errorf("core: argument %d segment to thread %d: %w", param, m.To, err)
		}
		return nil
	})
}

// ApplySegment is the one segment applier, for out-segments at the client
// and in-segments at the server. It checks a's runs against holder's local
// storage and their total against remaining, the elements still owed, and
// only then decodes the payload: a segment that does not fit writes nothing.
// It returns the number of elements written. scratch is the caller's run
// buffer, reused across segments.
func ApplySegment(holder dseq.Distributed, a *pgiop.ArgStream, remaining int, scratch *[]dist.Run) (int, error) {
	localLen := holder.LocalLen()
	runs := (*scratch)[:0]
	n := 0
	for _, r := range a.Runs {
		if r.Len < 0 || r.DstOff < 0 || int(r.DstOff)+int(r.Len) > localLen {
			return 0, fmt.Errorf("segment run [%d+%d] exceeds local storage %d", r.DstOff, r.Len, localLen)
		}
		runs = append(runs, dist.Run{Global: int(r.Global), Len: int(r.Len), DstOff: int(r.DstOff)})
		n += int(r.Len)
	}
	*scratch = runs[:0]
	if n > remaining {
		return 0, fmt.Errorf("segment of %d elements exceeds the %d still owed", n, remaining)
	}
	d := cdr.GetDecoder(a.Payload)
	err := holder.DecodeRuns(d, runs)
	d.Release()
	if err != nil {
		return 0, fmt.Errorf("corrupt segment payload: %w", err)
	}
	return n, nil
}

// iovPool recycles the two-buffer scratch lists used for vectored
// header+payload sends, keeping both the serial and the parallel fan-out
// paths allocation-free at steady state.
var iovPool = sync.Pool{New: func() any { return new([2][]byte) }}

// fanOutMoves is the segment sender's worker pool: it runs send for every
// move from at most workers goroutines. Distinct destinations are independent frame streams, so the
// per-(binding, seqno, param) ordering each receiver relies on is untouched
// by reordering sends *across* destinations. Each send call receives a
// private iov scratch for its vectored send, so pooled buffers never cross
// goroutines. The first error wins: remaining moves are skipped (in-flight
// sends on other workers still finish).
//
// With workers <= 1, or a single move, everything runs on the calling
// goroutine — the single-threaded transport discipline fabrics like Sim
// require; fanWidth gates workers on Router.ConcurrentSendSafe.
func fanOutMoves(workers int, moves []dist.Move, send func(m *dist.Move, iov *[2][]byte) error) error {
	if len(moves) == 0 {
		return nil
	}
	if workers > len(moves) {
		workers = len(moves)
	}
	if workers <= 1 {
		iov := iovPool.Get().(*[2][]byte)
		defer iovPool.Put(iov)
		for i := range moves {
			if err := send(&moves[i], iov); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		errOnce sync.Once
		first   error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			iov := iovPool.Get().(*[2][]byte)
			defer iovPool.Put(iov)
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(moves) {
					return
				}
				if err := send(&moves[i], iov); err != nil {
					errOnce.Do(func() { first = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
