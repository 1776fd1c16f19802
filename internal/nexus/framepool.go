package nexus

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// smallFrame is the largest frame the receive side reads (TCP) or copies
// (Inproc) into a pooled buffer — the size below which the send side copies
// into the write combiner too (TCPCoalesceLimit). Larger frames
// get a buffer of their own that is handed over for good, so bulk data is
// never copied to make a buffer reusable.
const smallFrame = 4 << 10

// Pooled buffers come in power-of-two size classes from 64 B to smallFrame,
// so a frame that is never released costs the GC at most twice its length.
const (
	frameClassMinShift = 6
	frameClasses       = 7
)

// frameBuf is one pooled buffer, b its whole length. The handle, not the
// slice, is what travels with a Frame and sits in the pool: a pointer goes
// into a sync.Pool without being boxed.
type frameBuf struct {
	b []byte
}

var framePools [frameClasses]sync.Pool

// frameHook, when a test has set it, sees every pooled buffer as it is
// handed out (put false) and as it is taken back (put true).
var frameHook atomic.Pointer[func(fb *frameBuf, put bool)]

func frameClass(n int) int {
	if n <= 1<<frameClassMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - frameClassMinShift
}

// frameBytes returns n bytes, contents unspecified, for a received frame to
// be read or copied into: a slice of a pooled buffer — buf, which the Frame
// carries — when the frame is small, a fresh slice the GC owns and a nil buf
// otherwise.
func frameBytes(n int) (data []byte, buf *frameBuf) {
	if n > smallFrame {
		return make([]byte, n), nil
	}
	c := frameClass(n)
	buf, _ = framePools[c].Get().(*frameBuf)
	if buf == nil {
		buf = &frameBuf{b: make([]byte, 1<<(frameClassMinShift+c))}
	}
	if h := frameHook.Load(); h != nil {
		(*h)(buf, false)
	}
	return buf.b[:n], buf
}

// Pooled reports whether Data lies in a buffer the transport wants back: a
// consumer that will Release the frame copies what it keeps out of Data, a
// consumer of a frame that is not pooled may alias it for as long as it
// likes.
func (f Frame) Pooled() bool { return f.buf != nil }

// Release returns a pooled frame's buffer to the transport; on any other
// frame it does nothing. It may be called at most once per received frame —
// copies of the Frame value share the buffer — and from any goroutine; Data
// must not be read afterwards. Not calling it is always safe: the buffer is
// then garbage-collected like any other.
func (f Frame) Release() {
	if f.buf == nil {
		return
	}
	poisonFrame(f.buf.b)
	if h := frameHook.Load(); h != nil {
		(*h)(f.buf, true)
	}
	framePools[frameClass(len(f.buf.b))].Put(f.buf)
}
