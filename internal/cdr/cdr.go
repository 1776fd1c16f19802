// Package cdr implements a Common Data Representation-style binary
// encoding, the marshaling format PARDIS inherits from CORBA.
//
// Like GIOP's CDR, every primitive is naturally aligned (a value of size n
// starts at an offset that is a multiple of n, relative to the start of the
// stream) and multi-byte values use a fixed byte order (big-endian here;
// real CDR negotiates, which only matters between heterogeneous peers).
// Strings carry a length prefix and a NUL terminator; sequences carry an
// element-count prefix. The same routines serve both network transport and
// transfers within the communication domain of a parallel program — the
// property the paper calls out for dynamically-sized nested types.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrTruncated is reported when a decoder runs out of bytes.
var ErrTruncated = errors.New("cdr: truncated stream")

// Encoder builds a CDR stream. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// --- Encoder reuse -----------------------------------------------------------

// maxPooledCap bounds the buffer size retained by the encoder pool so one
// oversized message cannot pin a large allocation forever.
const maxPooledCap = 1 << 20 // 1 MiB

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a reset encoder from the package pool with at least the
// given capacity. Release it with Release when the encoded bytes are no
// longer referenced; the transfer APIs that accept the bytes without
// retaining them (nexus SendV, synchronous TCP sends) make that point the
// return of the send call.
func GetEncoder(capacity int) *Encoder {
	e := encPool.Get().(*Encoder)
	if cap(e.buf) < capacity {
		e.buf = make([]byte, 0, capacity)
	} else {
		e.buf = e.buf[:0]
	}
	return e
}

// Release returns the encoder to the pool. The caller must not use the
// encoder, or any slice obtained from Bytes, after Release.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledCap {
		e.buf = nil
	}
	encPool.Put(e)
}

// Bytes returns the encoded stream. The slice aliases the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current stream length.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) align(n int) {
	for len(e.buf)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// PutBool encodes a boolean as one octet (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutOctet encodes a raw byte.
func (e *Encoder) PutOctet(v byte) { e.buf = append(e.buf, v) }

// PutChar encodes an IDL char (one octet).
func (e *Encoder) PutChar(v byte) { e.buf = append(e.buf, v) }

// PutShort encodes a 16-bit signed integer.
func (e *Encoder) PutShort(v int16) { e.PutUShort(uint16(v)) }

// PutUShort encodes a 16-bit unsigned integer.
func (e *Encoder) PutUShort(v uint16) {
	e.align(2)
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// PutLong encodes a 32-bit signed integer (IDL long).
func (e *Encoder) PutLong(v int32) { e.PutULong(uint32(v)) }

// PutULong encodes a 32-bit unsigned integer.
func (e *Encoder) PutULong(v uint32) {
	e.align(4)
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutLongLong encodes a 64-bit signed integer.
func (e *Encoder) PutLongLong(v int64) { e.PutULongLong(uint64(v)) }

// PutULongLong encodes a 64-bit unsigned integer.
func (e *Encoder) PutULongLong(v uint64) {
	e.align(8)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutFloat encodes a 32-bit IEEE float.
func (e *Encoder) PutFloat(v float32) { e.PutULong(math.Float32bits(v)) }

// PutDouble encodes a 64-bit IEEE double.
func (e *Encoder) PutDouble(v float64) { e.PutULongLong(math.Float64bits(v)) }

// PutString encodes a string: ulong length (including the terminating NUL),
// the bytes, then a NUL — CDR's wire format.
func (e *Encoder) PutString(s string) {
	e.PutULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// PutSeqLen encodes a sequence's element count.
func (e *Encoder) PutSeqLen(n int) { e.PutULong(uint32(n)) }

// PutOctets encodes a length-prefixed octet sequence.
func (e *Encoder) PutOctets(b []byte) {
	e.PutSeqLen(len(b))
	e.buf = append(e.buf, b...)
}

// PutRaw appends bytes with no prefix and no alignment. Callers must pair it
// with a matching GetRaw.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// AlignedAppend aligns the stream to align and returns a writable n-byte
// window appended to it — the raw view bulk encoders fill in place. The
// window is valid until the next mutation of the encoder.
func (e *Encoder) AlignedAppend(align, n int) []byte {
	e.align(align)
	off := len(e.buf)
	if free := cap(e.buf) - off; free >= n {
		e.buf = e.buf[:off+n]
	} else {
		e.buf = append(e.buf, make([]byte, n)...)
	}
	return e.buf[off : off+n]
}

// PutDoubles encodes a length-prefixed sequence of doubles using a bulk
// copy (the hot path for distributed-sequence argument segments).
func (e *Encoder) PutDoubles(v []float64) {
	e.PutSeqLen(len(v))
	e.PutDoublesRaw(v)
}

// PutDoublesRaw bulk-encodes doubles with no count prefix (run lengths
// travel out of band, e.g. in a transfer schedule). An empty slice writes
// nothing — not even alignment padding — matching the per-element encoding.
func (e *Encoder) PutDoublesRaw(v []float64) {
	if len(v) == 0 {
		return
	}
	b := e.AlignedAppend(8, 8*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// PutLongs encodes a length-prefixed sequence of 32-bit integers.
func (e *Encoder) PutLongs(v []int32) {
	e.PutSeqLen(len(v))
	e.PutLongsRaw(v)
}

// PutLongsRaw bulk-encodes 32-bit integers with no count prefix.
func (e *Encoder) PutLongsRaw(v []int32) {
	if len(v) == 0 {
		return
	}
	b := e.AlignedAppend(4, 4*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint32(b[4*i:], uint32(x))
	}
}

// PutFloats encodes a length-prefixed sequence of 32-bit floats.
func (e *Encoder) PutFloats(v []float32) {
	e.PutSeqLen(len(v))
	e.PutFloatsRaw(v)
}

// PutFloatsRaw bulk-encodes 32-bit floats with no count prefix.
func (e *Encoder) PutFloatsRaw(v []float32) {
	if len(v) == 0 {
		return
	}
	b := e.AlignedAppend(4, 4*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

// Decoder reads a CDR stream produced by Encoder. Errors are sticky: after
// the first failure every Get returns a zero value and Err reports the
// cause.
type Decoder struct {
	buf    []byte
	pos    int
	err    error
	borrow bool
}

// NewDecoder reads from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset rewinds the decoder onto a new buffer, clearing position, sticky
// error, and borrow mode — the decode-side analog of Encoder.Reset for
// loops that must not allocate per message.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled decoder positioned at the start of buf. Pair
// with Release once decoding is done.
func GetDecoder(buf []byte) *Decoder {
	d := decPool.Get().(*Decoder)
	d.Reset(buf)
	return d
}

// Release recycles the decoder. Decoded values that alias the stream remain
// valid: the pool recycles only the decoder state, never the buffer.
func (d *Decoder) Release() {
	d.Reset(nil)
	decPool.Put(d)
}

// maxInternedLen bounds which strings enter the intern table, and
// maxInternedStrings bounds the table itself (it restarts empty when full),
// so adversarial or high-cardinality traffic cannot pin unbounded memory.
const (
	maxInternedLen     = 128
	maxInternedStrings = 4096
)

var (
	internMu sync.RWMutex
	interned = map[string]string{}
)

// GetStringInterned decodes a CDR string through a process-wide intern
// table. Protocol fields that repeat on every message — operation names,
// object keys, binding ids, reply addresses — decode to the same string
// allocation each time instead of one fresh copy per message.
func (d *Decoder) GetStringInterned() string {
	n := d.GetULong()
	if n == 0 {
		return ""
	}
	b := d.take(int(n), "string")
	if b == nil {
		return ""
	}
	b = b[:n-1] // drop terminating NUL
	if len(b) > maxInternedLen {
		return string(b)
	}
	internMu.RLock()
	s, ok := interned[string(b)] // map lookup by []byte key: no conversion alloc
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interned) >= maxInternedStrings {
		// Full: start over rather than stop interning. A flood of one-off
		// names (ten thousand short-lived client bindings) would otherwise
		// leave every later binding's identity fields uninterned — four
		// allocations per request — for the life of the process; after a
		// restart the names still in use re-enter at one allocation each.
		interned = map[string]string{}
	}
	interned[s] = s
	internMu.Unlock()
	return s
}

// SetBorrow declares that decoded aggregates may alias the wire buffer
// instead of copying, because the caller guarantees the buffer outlives
// (and is not mutated under) every decoded value. Codecs consult Borrowed
// to pick the zero-copy path.
func (d *Decoder) SetBorrow(b bool) { d.borrow = b }

// Borrowed reports whether zero-copy (aliasing) decoding was permitted.
func (d *Decoder) Borrowed() bool { return d.borrow }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d", ErrTruncated, what, d.pos)
	}
}

// align skips the padding before a value of alignment n, what; padding
// that runs past the end fails the decoder where the padding begins.
func (d *Decoder) align(n int, what string) {
	p := d.pos
	if r := p % n; r != 0 {
		p += n - r
	}
	if p > len(d.buf) {
		d.fail(what)
		return
	}
	d.pos = p
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil || d.pos+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// GetBool decodes a boolean.
func (d *Decoder) GetBool() bool {
	b := d.take(1, "bool")
	return b != nil && b[0] != 0
}

// GetOctet decodes one byte.
func (d *Decoder) GetOctet() byte {
	b := d.take(1, "octet")
	if b == nil {
		return 0
	}
	return b[0]
}

// GetChar decodes an IDL char.
func (d *Decoder) GetChar() byte { return d.GetOctet() }

// GetShort decodes a 16-bit signed integer.
func (d *Decoder) GetShort() int16 { return int16(d.GetUShort()) }

// GetUShort decodes a 16-bit unsigned integer.
func (d *Decoder) GetUShort() uint16 {
	d.align(2, "ushort")
	b := d.take(2, "ushort")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// GetLong decodes a 32-bit signed integer.
func (d *Decoder) GetLong() int32 { return int32(d.GetULong()) }

// GetULong decodes a 32-bit unsigned integer.
func (d *Decoder) GetULong() uint32 {
	d.align(4, "ulong")
	b := d.take(4, "ulong")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// GetLongLong decodes a 64-bit signed integer.
func (d *Decoder) GetLongLong() int64 { return int64(d.GetULongLong()) }

// GetULongLong decodes a 64-bit unsigned integer.
func (d *Decoder) GetULongLong() uint64 {
	d.align(8, "ulonglong")
	b := d.take(8, "ulonglong")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// GetFloat decodes a 32-bit float.
func (d *Decoder) GetFloat() float32 { return math.Float32frombits(d.GetULong()) }

// GetDouble decodes a 64-bit double.
func (d *Decoder) GetDouble() float64 { return math.Float64frombits(d.GetULongLong()) }

// GetString decodes a CDR string.
func (d *Decoder) GetString() string {
	n := d.GetULong()
	if n == 0 {
		// A conforming encoder always writes at least the NUL; tolerate
		// zero as an empty string for robustness.
		return ""
	}
	b := d.take(int(n), "string")
	if b == nil {
		return ""
	}
	return string(b[:n-1]) // drop terminating NUL
}

// GetSeqLen decodes a sequence element count, guarding against counts that
// exceed the remaining stream (corrupt or adversarial input).
func (d *Decoder) GetSeqLen(elemMinSize int) int {
	n := int(d.GetULong())
	if d.err != nil {
		return 0
	}
	if elemMinSize < 1 {
		elemMinSize = 1
	}
	if n < 0 || n > d.Remaining()/elemMinSize+1 {
		d.fail("sequence length")
		return 0
	}
	return n
}

// GetOctets decodes a length-prefixed octet sequence. The result aliases
// the input buffer.
func (d *Decoder) GetOctets() []byte {
	n := d.GetSeqLen(1)
	return d.take(n, "octets")
}

// GetRaw reads n raw bytes (no alignment). The result aliases the buffer.
func (d *Decoder) GetRaw(n int) []byte { return d.take(n, "raw") }

// AlignedView aligns the stream to align and returns the next n raw bytes
// without copying. The result aliases the wire buffer.
func (d *Decoder) AlignedView(align, n int) []byte {
	d.align(align, "aligned view")
	return d.take(n, "aligned view")
}

// GetDoubles decodes a length-prefixed sequence of doubles.
func (d *Decoder) GetDoubles() []float64 {
	n := d.GetSeqLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	if !d.GetDoublesInto(out) {
		return nil
	}
	return out
}

// GetDoublesInto bulk-decodes len(dst) doubles (no count prefix) into dst,
// reporting success. On a truncated stream dst is untouched and the sticky
// error is set.
func (d *Decoder) GetDoublesInto(dst []float64) bool {
	if len(dst) == 0 {
		return d.err == nil
	}
	b := d.AlignedView(8, 8*len(dst))
	if b == nil {
		return false
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return true
}

// GetLongs decodes a length-prefixed sequence of 32-bit integers.
func (d *Decoder) GetLongs() []int32 {
	n := d.GetSeqLen(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	if !d.GetLongsInto(out) {
		return nil
	}
	return out
}

// GetLongsInto bulk-decodes len(dst) 32-bit integers (no count prefix).
func (d *Decoder) GetLongsInto(dst []int32) bool {
	if len(dst) == 0 {
		return d.err == nil
	}
	b := d.AlignedView(4, 4*len(dst))
	if b == nil {
		return false
	}
	for i := range dst {
		dst[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return true
}

// GetFloatsInto bulk-decodes len(dst) 32-bit floats (no count prefix).
func (d *Decoder) GetFloatsInto(dst []float32) bool {
	if len(dst) == 0 {
		return d.err == nil
	}
	b := d.AlignedView(4, 4*len(dst))
	if b == nil {
		return false
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.BigEndian.Uint32(b[4*i:]))
	}
	return true
}
