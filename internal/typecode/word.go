package typecode

import (
	"fmt"
	"math"

	"pardis/internal/cdr"
)

// A scalar can also be carried unboxed, as a raw 8-byte word: a bool as 0 or
// 1, an integer in its low bits, a float as its IEEE bits, so every value,
// NaN payloads and -0 included, comes back bit for bit. A non-blocking
// call's cell keeps a scalar first result this way, for its typed future to
// read without an interface.

// Scalar reports whether values of kind k can be carried as a word: the
// boolean, integer and floating-point kinds, all below 16. Enums are not:
// Unmarshal checks their labels' range.
func (k Kind) Scalar() bool { return k >= Bool && k <= Double }

// UnmarshalWord decodes a scalar of type tc as a word, reading the same
// bytes, and failing on the same input, as Unmarshal.
func UnmarshalWord(d *cdr.Decoder, tc *TypeCode) (uint64, error) {
	switch {
	case tc.Kind == Float:
		return uint64(d.GetULong()), d.Err()
	case tc.Kind == Double:
		return d.GetULongLong(), d.Err()
	case !tc.Kind.Scalar():
		return 0, fmt.Errorf("typecode: %v is not a scalar", tc.Kind)
	}
	v, err := unmarshalDisc(d, tc)
	return uint64(v), err
}

// WordValue returns the word w of a scalar of kind k as the value Unmarshal
// gives that kind.
func WordValue(k Kind, w uint64) any {
	switch k {
	case Bool:
		return w != 0
	case Octet, Char:
		return byte(w)
	case Short:
		return int16(w)
	case UShort:
		return uint16(w)
	case Long:
		return int32(w)
	case ULong:
		return uint32(w)
	case LongLong:
		return int64(w)
	case ULongLong:
		return w
	case Float:
		return math.Float32frombits(uint32(w))
	case Double:
		return math.Float64frombits(w)
	}
	return nil
}

// WordAs returns the word w of a scalar of kind k as a T, reporting false
// unless T is the Go type Unmarshal gives k.
func WordAs[T any](k Kind, w uint64) (T, bool) {
	var t T
	ok := false
	switch p := any(&t).(type) {
	case *bool:
		*p, ok = w != 0, k == Bool
	case *byte:
		*p, ok = byte(w), k == Octet || k == Char
	case *int16:
		*p, ok = int16(w), k == Short
	case *uint16:
		*p, ok = uint16(w), k == UShort
	case *int32:
		*p, ok = int32(w), k == Long
	case *uint32:
		*p, ok = uint32(w), k == ULong
	case *int64:
		*p, ok = int64(w), k == LongLong
	case *uint64:
		*p, ok = w, k == ULongLong
	case *float32:
		*p, ok = math.Float32frombits(uint32(w)), k == Float
	case *float64:
		*p, ok = math.Float64frombits(w), k == Double
	}
	if !ok {
		var zero T
		return zero, false
	}
	return t, true
}
