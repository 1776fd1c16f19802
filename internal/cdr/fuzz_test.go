package cdr

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzDecoder drives an input-chosen sequence of Get* calls over arbitrary
// bytes, through the decoder and through refDecoder, a model of CDR
// decoding as the plain align-then-take it is: every call returns what the
// model's does, and after every call the position (Remaining) and the error
// text, offset included, match the model's. No call panics, the position
// never passes the end, and the first error sticks and wraps ErrTruncated.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{0, 0, 0, 1, 0})
	f.Add([]byte{9}, []byte{0, 0, 0, 1, 0})
	e := NewEncoder(64)
	e.PutString("op")
	e.PutDoubles([]float64{1, 2})
	e.PutLongs([]int32{3})
	f.Add([]byte{7, 9, 11}, e.Bytes())
	f.Add([]byte{1, 3, 3, 4, 2, 4, 14, 0x1e, 0x2e, 11, 8, 12, 0x3d, 0x2f}, e.Bytes())
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		d := NewDecoder(data)
		m := &refDecoder{buf: data}
		var sticky error
		for i, op := range ops {
			n := int(op >> 4) // an argument for the calls that take one
			var got, want any
			switch op % 16 {
			case 0:
				got, want = d.GetBool(), m.octet("octet") != 0
			case 1:
				got, want = d.GetOctet(), m.octet("octet")
			case 2:
				got, want = d.GetShort(), int16(m.fixed(2, "ushort"))
			case 3:
				got, want = d.GetULong(), uint32(m.fixed(4, "ulong"))
			case 4:
				got, want = d.GetLongLong(), int64(m.fixed(8, "ulonglong"))
			case 5:
				got, want = math.Float32bits(d.GetFloat()), uint32(m.fixed(4, "ulong"))
			case 6:
				got, want = math.Float64bits(d.GetDouble()), m.fixed(8, "ulonglong")
			case 7:
				got, want = d.GetString(), m.str()
			case 8:
				got, want = d.GetStringInterned(), m.str()
			case 9:
				got, want = doubleBits(d.GetDoubles()), doubleBits(m.doubles())
			case 10:
				got, want = d.GetLongs(), m.longs()
			case 11:
				got, want = d.GetOctets(), m.take(m.seqLen(1), "octets")
			case 12:
				got, want = d.GetRaw(n), m.take(n, "raw")
			case 13:
				got, want = d.AlignedView(1<<(n%4), n), m.view(1<<(n%4), n)
			case 14:
				got, want = d.GetSeqLen(n), m.seqLen(n)
			case 15:
				dst := make([]float32, n)
				ok := d.GetFloatsInto(dst)
				mok, mdst := m.floatsInto(n)
				got, want = [2]any{ok, floatBits(dst)}, [2]any{mok, floatBits(mdst)}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d (op %d): got %#v, the model %#v", i, op, got, want)
			}
			if d.Remaining() != len(m.buf)-m.pos {
				t.Fatalf("call %d (op %d): Remaining %d, the model %d", i, op, d.Remaining(), len(m.buf)-m.pos)
			}
			if d.Remaining() < 0 {
				t.Fatalf("op %d left Remaining %d of a %d-byte buffer", op, d.Remaining(), len(data))
			}
			err := d.Err()
			if text := fmt.Sprint(err); err == nil && m.err != "" || err != nil && text != m.err {
				t.Fatalf("call %d (op %d): error %v, the model's %q", i, op, err, m.err)
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("error %v does not wrap ErrTruncated", err)
				}
				if sticky != nil && err != sticky {
					t.Fatalf("error %v replaced %v", err, sticky)
				}
				sticky = err
			}
		}
	})
}

// refDecoder is CDR decoding written as plainly as it can be: a value of
// size n is read by skipping padding to a multiple of n, then taking n
// bytes; the first failure is kept, with what was being read and where.
type refDecoder struct {
	buf []byte
	pos int
	err string
}

func (m *refDecoder) fail(what string) {
	if m.err == "" {
		m.err = fmt.Sprintf("cdr: truncated stream: reading %s at offset %d", what, m.pos)
	}
}

func (m *refDecoder) align(n int, what string) {
	p := m.pos
	for p%n != 0 {
		p++
	}
	if p > len(m.buf) {
		m.fail(what)
		return
	}
	m.pos = p
}

func (m *refDecoder) take(n int, what string) []byte {
	if m.err != "" || m.pos+n > len(m.buf) {
		m.fail(what)
		return nil
	}
	b := m.buf[m.pos : m.pos+n]
	m.pos += n
	return b
}

func (m *refDecoder) octet(what string) byte {
	if b := m.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

// fixed reads an n-byte big-endian unsigned integer.
func (m *refDecoder) fixed(n int, what string) uint64 {
	m.align(n, what)
	var v uint64
	for _, c := range m.take(n, what) {
		v = v<<8 | uint64(c)
	}
	return v
}

func (m *refDecoder) str() string {
	n := int(m.fixed(4, "ulong"))
	if n == 0 {
		return ""
	}
	if b := m.take(n, "string"); b != nil {
		return string(b[:n-1])
	}
	return ""
}

func (m *refDecoder) seqLen(elemMinSize int) int {
	n := int(m.fixed(4, "ulong"))
	if m.err != "" {
		return 0
	}
	if elemMinSize < 1 {
		elemMinSize = 1
	}
	if n > (len(m.buf)-m.pos)/elemMinSize+1 {
		m.fail("sequence length")
		return 0
	}
	return n
}

func (m *refDecoder) view(align, n int) []byte {
	m.align(align, "aligned view")
	return m.take(n, "aligned view")
}

func (m *refDecoder) doubles() []float64 {
	n := m.seqLen(8)
	if n == 0 {
		return nil
	}
	b := m.view(8, 8*n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(beUint(b[8*i : 8*i+8]))
	}
	return out
}

func (m *refDecoder) longs() []int32 {
	n := m.seqLen(4)
	if n == 0 {
		return nil
	}
	b := m.view(4, 4*n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(beUint(b[4*i : 4*i+4]))
	}
	return out
}

// floatsInto returns what GetFloatsInto of n floats reports, and the floats
// it leaves in its destination.
func (m *refDecoder) floatsInto(n int) (bool, []float32) {
	out := make([]float32, n)
	if n == 0 {
		return m.err == "", out
	}
	b := m.view(4, 4*n)
	if b == nil {
		return false, out
	}
	for i := range out {
		out[i] = math.Float32frombits(uint32(beUint(b[4*i : 4*i+4])))
	}
	return true, out
}

// doubleBits and floatBits compare floats by their bits (NaN included),
// keeping nil apart from empty.
func doubleBits(v []float64) []uint64 {
	if v == nil {
		return nil
	}
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

func floatBits(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

func beUint(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// TestAlignPastEndFails: padding that runs off the end of the buffer fails
// the decoder where the padding begins, and leaves the position there.
func TestAlignPastEndFails(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 1, 0})
	if got := d.GetDoubles(); got != nil {
		t.Fatalf("GetDoubles = %v", got)
	}
	if d.Remaining() != 1 {
		t.Errorf("Remaining = %d, want 1", d.Remaining())
	}
	if err := d.Err(); !errors.Is(err, ErrTruncated) || err.Error() != "cdr: truncated stream: reading aligned view at offset 4" {
		t.Errorf("Err = %v", err)
	}
}
