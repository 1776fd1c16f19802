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
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
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

// The intern table: interned maps each string to where the table keeps it,
// an element of a block of internBlock strings. internFree is what is left
// of the current block. An element is written once, before anyone can see
// it, so a pointer to it stays a valid string for as long as anyone holds
// it. All three are internMu's.
var (
	internMu   sync.RWMutex
	interned   = map[string]*string{}
	internFree []string
)

const internBlock = 64

// internFront is the table's lock-free front: a cache of pointers to the
// table's elements in sets of two, picked by a hash of the bytes. A hit is
// an atomic load and a comparison or two; a miss takes the table's lock and
// puts the table's own element first in its set, the first moving second,
// so neither allocates. Two ways keep a pair of hot names that share a set
// from evicting each other on every message.
var (
	internFront [512]internSet
	internSeed  = maphash.MakeSeed()
)

type internSet [2]atomic.Pointer[string]

// fill puts p first in the set; the set's first element moves second.
func (set *internSet) fill(p *string) {
	set[1].Store(set[0].Load())
	set[0].Store(p)
}

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
	set := &internFront[maphash.Bytes(internSeed, b)%uint64(len(internFront))]
	for i := range set {
		if p := set[i].Load(); p != nil && *p == string(b) { // compared in place: no conversion alloc
			return *p
		}
	}
	return intern(b, set)
}

// intern finds or adds b in the table and fills set with it. The set is
// filled under the lock, so a restart, which empties the front, cannot be
// overtaken by a refill with an element of the table it replaced.
func intern(b []byte, set *internSet) string {
	internMu.RLock()
	p, ok := interned[string(b)] // map lookup by []byte key: no conversion alloc
	if ok {
		set.fill(p)
	}
	internMu.RUnlock()
	if ok {
		return *p
	}
	internMu.Lock()
	defer internMu.Unlock()
	if p, ok = interned[string(b)]; !ok {
		if len(interned) >= maxInternedStrings {
			// Full: start over rather than stop interning. A flood of
			// one-off names (ten thousand short-lived client bindings)
			// would otherwise leave every later binding's identity fields
			// uninterned — four allocations per request — for the life of
			// the process; after a restart the names still in use re-enter
			// at one allocation each, and one block per internBlock of them.
			interned = map[string]*string{}
			for i := range internFront {
				internFront[i][0].Store(nil)
				internFront[i][1].Store(nil)
			}
		}
		if len(internFree) == 0 {
			internFree = make([]string, internBlock)
		}
		p = &internFree[0]
		internFree = internFree[1:]
		*p = string(b)
		interned[*p] = p
	}
	set.fill(p)
	return *p
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

// truncated is the decoder's sticky error: what was being read, and where.
// Its text is built when it is read, so recording a failure is two stores —
// cheap enough for every fixed-size read to carry its own failure path and
// still inline.
type truncated struct {
	what string
	at   int
}

func (e *truncated) Error() string {
	return fmt.Sprintf("%v: reading %s at offset %d", ErrTruncated, e.what, e.at)
}

func (e *truncated) Unwrap() error { return ErrTruncated }

// fail records the first error: reading what at the current offset.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = &truncated{what, d.pos}
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

// The fixed-size reads below inline into their callers: a value of size n
// is aligned to n, so its offset p is a mask of the position, and one
// comparison admits the read. What it turns away — a decoder that has
// failed, a value or its padding past the end — ends in miss.

// miss ends a fixed-size read, of what at the aligned offset p, that does
// not fit. It leaves the decoder as the aligned read it stands for, align
// then take, would: the padding is skipped if it fits, and a healthy decoder
// fails where the value (or, past the end, its padding) begins.
func (d *Decoder) miss(p int, what string) {
	if p <= len(d.buf) {
		d.pos = p
	}
	d.fail(what)
}

// GetBool decodes a boolean.
func (d *Decoder) GetBool() bool { return d.GetOctet() != 0 }

// GetOctet decodes one byte.
func (d *Decoder) GetOctet() byte {
	if p := d.pos; d.err == nil && p < len(d.buf) {
		d.pos = p + 1
		return d.buf[p]
	}
	d.miss(d.pos, "octet")
	return 0
}

// GetChar decodes an IDL char.
func (d *Decoder) GetChar() byte { return d.GetOctet() }

// GetShort decodes a 16-bit signed integer.
func (d *Decoder) GetShort() int16 { return int16(d.GetUShort()) }

// GetUShort decodes a 16-bit unsigned integer.
func (d *Decoder) GetUShort() uint16 {
	p := (d.pos + 1) &^ 1
	if d.err == nil && p+2 <= len(d.buf) {
		d.pos = p + 2
		return binary.BigEndian.Uint16(d.buf[p:])
	}
	d.miss(p, "ushort")
	return 0
}

// GetLong decodes a 32-bit signed integer.
func (d *Decoder) GetLong() int32 { return int32(d.GetULong()) }

// GetULong decodes a 32-bit unsigned integer.
func (d *Decoder) GetULong() uint32 {
	p := (d.pos + 3) &^ 3
	if d.err == nil && p+4 <= len(d.buf) {
		d.pos = p + 4
		return binary.BigEndian.Uint32(d.buf[p:])
	}
	d.miss(p, "ulong")
	return 0
}

// GetLongLong decodes a 64-bit signed integer.
func (d *Decoder) GetLongLong() int64 { return int64(d.GetULongLong()) }

// GetULongLong decodes a 64-bit unsigned integer.
func (d *Decoder) GetULongLong() uint64 {
	p := (d.pos + 7) &^ 7
	if d.err == nil && p+8 <= len(d.buf) {
		d.pos = p + 8
		return binary.BigEndian.Uint64(d.buf[p:])
	}
	d.miss(p, "ulonglong")
	return 0
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
	// At most one element per elemMinSize bytes left, and one more: n must
	// not exceed rem/elemMinSize + 1. Counts of 0 and 1 always pass, so the
	// common empty sequence divides nothing.
	rem := len(d.buf) - d.pos
	if elemMinSize > 1 && n > 1 {
		rem /= elemMinSize
	}
	if d.err != nil || n < 0 || n > rem+1 {
		d.fail("sequence length")
		return 0
	}
	return n
}

// GetOctets decodes a length-prefixed octet sequence. The result aliases
// the input buffer.
func (d *Decoder) GetOctets() []byte {
	// GetSeqLen(1), whose bound needs no division, read in place.
	n := int(d.GetULong())
	if d.err != nil || n < 0 || n > len(d.buf)-d.pos+1 {
		d.fail("sequence length")
		return nil
	}
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
