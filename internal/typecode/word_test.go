package typecode

import (
	"math"
	"testing"

	"pardis/internal/cdr"
)

// TestWordAsMatchesWordValue: for every scalar kind, WordAs of its Go type
// reads from a word exactly the value WordValue boxes from it, bit for bit —
// NaN payloads and -0 included — and WordAs of any other type refuses it.
func TestWordAsMatchesWordValue(t *testing.T) {
	check := func(k Kind, w uint64, as func(Kind, uint64) (any, bool)) {
		t.Helper()
		got, ok := as(k, w)
		if want := WordValue(k, w); !ok || !sameBits(got, want) {
			t.Errorf("%v word %#x: WordAs = %#v, %v; WordValue %#v", k, w, got, ok, want)
		}
		if k != LongLong {
			if _, ok := WordAs[int64](k, w); ok {
				t.Errorf("%v word read as int64", k)
			}
		}
	}
	for _, w := range []uint64{0, 1} {
		check(Bool, w, wordAs[bool])
	}
	for _, w := range []uint64{0, 0x7f, 0xff} {
		check(Octet, w, wordAs[byte])
		check(Char, w, wordAs[byte])
	}
	for _, w := range []uint64{0, 0x7fff, 0x8000, 0xffff, math.MaxUint64} {
		check(Short, w, wordAs[int16])
		check(UShort, w, wordAs[uint16])
	}
	for _, w := range []uint64{0, 0x7fffffff, 0x80000000, 0xffffffff, math.MaxUint64} {
		check(Long, w, wordAs[int32])
		check(ULong, w, wordAs[uint32])
	}
	for _, w := range []uint64{0, 1 << 63, math.MaxUint64} {
		check(LongLong, w, wordAs[int64])
		check(ULongLong, w, wordAs[uint64])
	}
	for _, w := range []uint32{0, 0x80000000, 0x7fc00123, 0xff800001} {
		check(Float, uint64(w), wordAs[float32])
	}
	for _, w := range []uint64{0, 1 << 63, 0x7ff8000000000abc, 0xfff0000000000001} {
		check(Double, w, wordAs[float64])
	}
}

// TestUnmarshalWordRefusesNonScalars: enums, whose labels Unmarshal
// range-checks, and every non-scalar kind have no word.
func TestUnmarshalWordRefusesNonScalars(t *testing.T) {
	for _, tc := range []*TypeCode{EnumOf("Color", "red"), TCString, SequenceOf(TCLong, 0)} {
		if tc.Kind.Scalar() {
			t.Errorf("%v counts as a scalar", tc)
		}
		if _, err := UnmarshalWord(cdr.NewDecoder(make([]byte, 8)), tc); err == nil {
			t.Errorf("%v decoded as a word", tc)
		}
	}
}

func wordAs[T any](k Kind, w uint64) (any, bool) { return WordAs[T](k, w) }

// sameBits reports whether a and b are the same value of the same type,
// floats compared by their bits.
func sameBits(a, b any) bool {
	switch x := a.(type) {
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}
