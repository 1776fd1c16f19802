package typecode_test

import (
	"math"
	"runtime"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/idlgen/sample"
	"pardis/internal/typecode"
)

// sameValue compares two decoded values structurally, floats by their bits
// (a NaN a peer sent is the same NaN in both modes).
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && string(x) == string(y)
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case []int32:
		y, ok := b.([]int32)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []string:
		y, ok := b.([]string)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		return ok && sameValues(x, y)
	case *typecode.StructVal:
		y, ok := b.(*typecode.StructVal)
		return ok && x.TC == y.TC && sameValues(x.Fields, y.Fields)
	case *typecode.UnionVal:
		y, ok := b.(*typecode.UnionVal)
		return ok && x.TC == y.TC && x.Disc == y.Disc && sameValue(x.V, y.V)
	default: // the comparable scalars and strings
		return a == b
	}
}

func sameValues(x, y []any) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if !sameValue(x[i], y[i]) {
			return false
		}
	}
	return true
}

// FuzzUnmarshalBorrowEqualsCopy feeds arbitrary bytes to typecode.Unmarshal —
// what decodes every inline argument and result a peer sends — in its two
// modes, over the typecodes of the generated sample package and the octet
// shapes on which alone the modes differ. The ORB and the POA pick the mode
// per frame (borrow from a frame the GC owns, copy out of a pooled one), so
// the two must agree: equal values or the same error, never a panic, nothing
// allocated out of proportion to the input, and a copy-mode value owes
// nothing to the input once decoded.
func FuzzUnmarshalBorrowEqualsCopy(f *testing.F) {
	octets := typecode.SequenceOf(typecode.TCOctet, 0)
	blob := typecode.StructOf("blob",
		typecode.Field{Name: "id", Type: typecode.TCLong},
		typecode.Field{Name: "data", Type: octets},
		typecode.Field{Name: "name", Type: typecode.TCString})
	tcs := []*typecode.TypeCode{
		sample.MoodTC(), sample.PointTC(), sample.SegmentTC(), sample.OutcomeTC(), sample.PathTC(), sample.SamplesTC(),
		octets, typecode.SequenceOf(typecode.TCOctet, 16), typecode.SequenceOf(typecode.TCChar, 0),
		blob, typecode.SequenceOf(blob, 0), typecode.SequenceOf(typecode.TCString, 0), typecode.SequenceOf(typecode.TCLong, 0),
	}
	point := func(x, y float64) *typecode.StructVal {
		return &typecode.StructVal{TC: sample.PointTC(), Fields: []any{x, y}}
	}
	aBlob := &typecode.StructVal{TC: blob, Fields: []any{int32(7), []byte("payload bytes"), "seven"}}
	for i, v := range []any{
		uint32(1), point(1, -2),
		&typecode.StructVal{TC: sample.SegmentTC(), Fields: []any{point(0, 0), point(3, 4), "hypotenuse"}},
		&typecode.UnionVal{TC: sample.OutcomeTC(), Disc: 1, V: "grumpy"},
		[]any{point(1, 1), point(2, math.NaN())}, []float64{1, 2, 3},
		[]byte("sixty-four bytes would do as well"), []byte("sixteen at most!"), []byte{0, 0xDB},
		aBlob, []any{aBlob, aBlob}, []string{"a", "", "ccc"}, []int32{-1, 0, 1},
	} {
		e := cdr.NewEncoder(64)
		if err := typecode.Marshal(e, tcs[i], v); err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(uint8(i), e.Bytes())
	}
	f.Add(uint8(6), []byte{0xff, 0xff, 0xff, 0xf0, 1, 2, 3}) // a length the input cannot back
	f.Add(uint8(10), []byte{0, 0, 1, 0})                     // 256 blobs announced, none present

	unmarshal := func(wire []byte, tc *typecode.TypeCode, borrow bool) (any, error) {
		d := cdr.NewDecoder(wire)
		d.SetBorrow(borrow)
		return typecode.Unmarshal(d, tc)
	}
	f.Fuzz(func(t *testing.T, which uint8, wire []byte) {
		tc := tcs[int(which)%len(tcs)]
		pristine := append([]byte(nil), wire...)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		copied, cerr := unmarshal(wire, tc, false)
		runtime.ReadMemStats(&after)
		// Boxed elements cost a few words per wire byte at worst (a string
		// sequence of empty strings); the constant absorbs what the rest of
		// the process allocated meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(wire))+256<<10 {
			t.Errorf("%v: %d input bytes made Unmarshal allocate %d", tc, len(wire), grew)
		}

		borrowed, berr := unmarshal(wire, tc, true)
		if (cerr == nil) != (berr == nil) || (cerr != nil && cerr.Error() != berr.Error()) {
			t.Fatalf("%v: copy mode says %v, borrow mode says %v", tc, cerr, berr)
		}
		if cerr != nil {
			return
		}
		if !sameValue(copied, borrowed) {
			t.Fatalf("%v: copy mode decoded %#v, borrow mode %#v", tc, copied, borrowed)
		}
		// What copy mode returned is the caller's: the transport may put the
		// next frame into these bytes.
		for i := range wire {
			wire[i] = 0xDB
		}
		if again, err := unmarshal(pristine, tc, false); err != nil || !sameValue(copied, again) {
			t.Fatalf("%v: the copy-mode value changed when its input was overwritten: now %#v, decodes as %#v (%v)", tc, copied, again, err)
		}
	})
}
