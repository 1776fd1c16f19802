package core

import (
	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
)

// Streamed segment transfer. Each move travels as bounded chunks,
// double-buffering pooled encoders so chunk k's vectored send overlaps chunk
// k+1's encode. Peak per-move encoder residency is O(chunk) regardless of
// sequence size — a multi-GB sequence never materializes in one buffer.
// Receivers decode each ArgStream chunk positionally into place, so nothing
// is buffered whole on that side either.

// defaultStreamChunk is the payload bound of one ArgStream frame where the
// caller pins none: large enough to amortize per-frame cost, small enough
// that a move's double-buffered residency is 512 KiB. A width × chunk sweep
// over loopback TCP (EXPERIMENTS.md) has 256 KiB and 1 MiB level, 64 KiB
// and 4 MiB slower.
const defaultStreamChunk = 256 << 10

var (
	streamChunks = obs.Default.MustCounter("stream_chunks_total")
	// streamPeakBuffer is a high-watermark gauge: the largest per-move
	// payload-encoder residency (bytes encoded but not yet released to the
	// pool) any streamed transfer has reached. Tests reset it around a
	// transfer to assert the O(chunk) bound.
	streamPeakBuffer = obs.Default.MustGauge("stream_peak_buffer_bytes")
)

// ResetStreamPeak clears the peak-residency watermark (tests isolate one
// transfer's peak this way).
func ResetStreamPeak() { streamPeakBuffer.Set(0) }

// StreamPeakBytes reads the peak-residency watermark.
func StreamPeakBytes() int64 { return streamPeakBuffer.Load() }

// StreamChunksTotal reads the cumulative chunk-frame count.
func StreamChunksTotal() uint64 { return streamChunks.Load() }

// streamChunk is the chunk byte size for one segment transfer: pin if
// positive, else defaultStreamChunk (see TransferPolicy).
func streamChunk(pin int) int {
	if pin > 0 {
		return pin
	}
	return defaultStreamChunk
}

// streamSpec carries the constant ArgStream header fields of one move's
// chunk stream. It holds only scalars (never the request itself), so
// capturing it in fan-out closures does not drag a whole request header to
// the heap.
type streamSpec struct {
	BindingID string
	SeqNo     uint32
	ReqID     uint32
	Param     int32
	Dir       byte
	Sender    int32
}

// streamMove ships one move's elements to addr as ArgStream chunks of at
// most chunkBytes payload each. Chunks decode positionally — each carries
// its own runs — so the receiver needs no reassembly buffer; with overlap
// set (concurrency-safe fabrics) the previous chunk's vectored send runs on
// a goroutine while the next chunk encodes, bounding live payload encoders
// at two.
// Frames of one stream are still issued in order: each send is launched
// only after the previous one returned, which the ≤2-chunk residency bound
// depends on as much as the transport's per-connection FIFO does.
func streamMove(r *Router, addr nexus.Addr, holder dseq.Distributed, m *dist.Move,
	spec streamSpec, chunkBytes, elemSize int, overlap bool, iov *[2][]byte) error {

	elems := m.Elements()
	chunkElems := dist.ChunkElems(chunkBytes, elemSize)
	if elems <= chunkElems {
		// Single-frame fast path: no pipeline state, no goroutine.
		enc := cdr.GetEncoder(elems * elemSize)
		holder.EncodeRuns(enc, m.Runs)
		streamChunks.Inc()
		streamPeakBuffer.Max(int64(enc.Len()))
		as := &pgiop.ArgStream{
			BindingID: spec.BindingID,
			SeqNo:     spec.SeqNo,
			ReqID:     spec.ReqID,
			Param:     spec.Param,
			Dir:       spec.Dir,
			Sender:    spec.Sender,
			Runs:      wireRuns(m.Runs),
			Payload:   enc.Bytes(),
		}
		hdr := cdr.GetEncoder(128)
		pgiop.AppendArgStream(hdr, as)
		err := r.SendV2(iov, addr, hdr.Bytes(), as.Payload)
		hdr.Release()
		enc.Release()
		return err
	}

	// Chunked pipeline. All bookkeeping runs on this goroutine; the send
	// goroutine (overlap mode) only performs the vectored write and reports
	// through errc, so residency accounting needs no atomics.
	var (
		errc              chan error
		inFlight          bool
		flightPay         *cdr.Encoder
		flightHdr         *cdr.Encoder
		resident, peak    int
		subRuns           []dist.Run
		firstErr, sendErr error
	)
	if overlap {
		errc = make(chan error, 1)
	}
	// wait retires the in-flight chunk: collects its send result, releases
	// both encoders back to the pool and drops their bytes from residency.
	wait := func() error {
		if !inFlight {
			return nil
		}
		err := <-errc
		inFlight = false
		resident -= flightPay.Len()
		flightPay.Release()
		flightHdr.Release()
		flightPay, flightHdr = nil, nil
		return err
	}
	for off := 0; off < elems; off += chunkElems {
		n := chunkElems
		if off+n > elems {
			n = elems - off
		}
		subRuns = dist.SplitRuns(m.Runs, off, n, subRuns[:0])
		pay := cdr.GetEncoder(n * elemSize)
		holder.EncodeRuns(pay, subRuns)
		streamChunks.Inc()
		resident += pay.Len()
		if resident > peak {
			peak = resident
		}
		as := &pgiop.ArgStream{
			BindingID: spec.BindingID,
			SeqNo:     spec.SeqNo,
			ReqID:     spec.ReqID,
			Param:     spec.Param,
			Dir:       spec.Dir,
			Sender:    spec.Sender,
			ChunkOff:  uint32(off),
			More:      off+n < elems,
			Runs:      wireRuns(subRuns),
			Payload:   pay.Bytes(),
		}
		hdr := cdr.GetEncoder(128)
		pgiop.AppendArgStream(hdr, as)
		// This chunk was encoded while the previous one was on the wire;
		// retire that send before issuing the next.
		if err := wait(); err != nil {
			resident -= pay.Len()
			pay.Release()
			hdr.Release()
			firstErr = err
			break
		}
		if overlap {
			inFlight = true
			flightPay, flightHdr = pay, hdr
			go func(pay, hdr *cdr.Encoder) {
				siov := iovPool.Get().(*[2][]byte)
				err := r.SendV2(siov, addr, hdr.Bytes(), pay.Bytes())
				iovPool.Put(siov)
				errc <- err
			}(pay, hdr)
			continue
		}
		err := r.SendV2(iov, addr, hdr.Bytes(), pay.Bytes())
		resident -= pay.Len()
		hdr.Release()
		pay.Release()
		if err != nil {
			firstErr = err
			break
		}
	}
	sendErr = wait()
	streamPeakBuffer.Max(int64(peak))
	if firstErr != nil {
		return firstErr
	}
	return sendErr
}

// wireRuns converts schedule runs to their wire form. A fresh slice
// per chunk is deliberate: the ArgStream (and with it the runs) may be
// referenced until the header encoder has serialized them, and the slices
// are small next to the payload they describe.
func wireRuns(runs []dist.Run) []pgiop.Run {
	out := make([]pgiop.Run, len(runs))
	for i, r := range runs {
		out[i] = pgiop.Run{Global: int32(r.Global), Len: int32(r.Len), DstOff: int32(r.DstOff)}
	}
	return out
}
