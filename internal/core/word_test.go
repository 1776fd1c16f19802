package core

import (
	"math"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/future"
	"pardis/internal/pgiop"
	"pardis/internal/typecode"
)

// scalarTCs are the typecodes in the scalar-kind table, each with the
// future that reads its Go type.
var scalarTCs = []struct {
	tc  *typecode.TypeCode
	get func(*future.Cell) (any, error)
}{
	{typecode.TCBool, getAs[bool]},
	{typecode.TCOctet, getAs[byte]},
	{typecode.TCChar, getAs[byte]},
	{typecode.TCShort, getAs[int16]},
	{typecode.TCUShort, getAs[uint16]},
	{typecode.TCLong, getAs[int32]},
	{typecode.TCULong, getAs[uint32]},
	{typecode.TCLongLong, getAs[int64]},
	{typecode.TCULongLong, getAs[uint64]},
	{typecode.TCFloat, getAs[float32]},
	{typecode.TCDouble, getAs[float64]},
}

// getAs reads result 0 of c through a Future[T].
func getAs[T any](c *future.Cell) (any, error) { return future.Of[T](c, 0).Get() }

// wordShapes are the operations whose first result is a scalar of type tc:
// the return value alone, the return value before a string out, and an out
// parameter after an in parameter and before an inout one.
func wordShapes(tc *typecode.TypeCode) []*Operation {
	return []*Operation{
		{Name: "ret", Result: tc},
		{Name: "retOut", Result: tc, Params: []Param{NewParam("s", Out, typecode.TCString)}},
		{Name: "out", Params: []Param{
			NewParam("n", In, typecode.TCLong),
			NewParam("x", Out, tc),
			NewParam("y", InOut, typecode.TCLong),
		}},
	}
}

// decodeBoth decodes body as op's reply twice, as a non-blocking call does
// (a scalar first result into the cell's word) and as a blocking call does
// (every result boxed), and returns the two resolved cells and their errors.
func decodeBoth(op *Operation, body []byte) (word, boxed *future.Cell, werr, berr error) {
	o := new(ORB)
	m := &Msg{Reply: &pgiop.Reply{Body: body}}
	nb := &pendingReq{op: op, call: future.NewCell()}
	vals, werr := o.results(nb, m)
	nb.call.Resolve(vals, werr)
	bl := &pendingReq{op: op}
	bl.call = &bl.own
	vals, berr = o.results(bl, m)
	bl.own.Resolve(vals, berr)
	return nb.call, &bl.own, werr, berr
}

// checkWordMatchesBoxed fails t unless the word cell and the boxed cell of
// one reply agree: the same error, or the same values bit for bit, the typed
// future of the first reading what the boxed cell holds, and a future of a
// mismatched type failing the same way on both.
func checkWordMatchesBoxed(t *testing.T, op *Operation, get func(*future.Cell) (any, error), body []byte) {
	t.Helper()
	word, boxed, werr, berr := decodeBoth(op, body)
	if errText(werr) != errText(berr) {
		t.Fatalf("%s on %x: word decode error %v, boxed %v", op.Name, body, werr, berr)
	}
	wv, werr := word.Values()
	bv, berr := boxed.Values()
	if errText(werr) != errText(berr) || len(wv) != len(bv) {
		t.Fatalf("%s on %x: Values %#v, %v; boxed %#v, %v", op.Name, body, wv, werr, bv, berr)
	}
	for i := range wv {
		if !sameBits(wv[i], bv[i]) {
			t.Fatalf("%s on %x: value %d is %#v, boxed %#v", op.Name, body, i, wv[i], bv[i])
		}
	}
	got, gerr := get(word)
	want, _ := get(boxed)
	if errText(gerr) != errText(werr) || (werr == nil && !sameBits(got, want)) {
		t.Fatalf("%s on %x: Get = %#v, %v; boxed %#v", op.Name, body, got, gerr, want)
	}
	_, werr = future.Of[string](word, 0).Get()
	_, berr = future.Of[string](boxed, 0).Get()
	if errText(werr) != errText(berr) {
		t.Fatalf("%s on %x: mismatched future: %v, boxed %v", op.Name, body, werr, berr)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

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

// encodeShape encodes the reply of op carrying v as its scalar result: the
// other results are "rest" and 7.
func encodeShape(t testing.TB, op *Operation, v any) []byte {
	t.Helper()
	e := cdr.NewEncoder(32)
	defer e.Release()
	put := func(tc *typecode.TypeCode, x any) {
		if err := typecode.Marshal(e, tc, x); err != nil {
			t.Fatal(err)
		}
	}
	if op.Result != nil {
		put(op.Result, v)
	}
	for i := range op.Params {
		switch prm := &op.Params[i]; {
		case prm.Mode == In:
		case prm.Type.Kind == typecode.String:
			put(prm.Type, "rest")
		case prm.Mode == Out:
			put(prm.Type, v)
		default:
			put(prm.Type, int32(7))
		}
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestScalarWordMatchesBoxed: for every scalar kind, in every position a
// first result can take, a non-blocking call's typed future reads from the
// word exactly the value typecode.Unmarshal boxes for a blocking one — NaN
// payloads and -0 included — and Values, a mismatched future and a reply
// cut short anywhere give what the boxed path gives.
func TestScalarWordMatchesBoxed(t *testing.T) {
	samples := map[typecode.Kind][]any{
		typecode.Bool:      {false, true},
		typecode.Octet:     {byte(0), byte(0x80), byte(0xff)},
		typecode.Char:      {byte('z')},
		typecode.Short:     {int16(0), int16(-1), int16(math.MinInt16), int16(math.MaxInt16)},
		typecode.UShort:    {uint16(0), uint16(0x8000), uint16(math.MaxUint16)},
		typecode.Long:      {int32(0), int32(-7), int32(math.MinInt32), int32(math.MaxInt32)},
		typecode.ULong:     {uint32(0), uint32(1 << 31), uint32(math.MaxUint32)},
		typecode.LongLong:  {int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64)},
		typecode.ULongLong: {uint64(0), uint64(1 << 63), uint64(math.MaxUint64)},
		typecode.Float: {float32(0), float32(math.Copysign(0, -1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7fc00123), math.Float32frombits(0xff800001), float32(1.5)},
		typecode.Double: {0.0, math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64,
			math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000001), 2.5},
	}
	for _, s := range scalarTCs {
		if !s.tc.Kind.Scalar() {
			t.Fatalf("%v is not a scalar", s.tc)
		}
		for _, op := range wordShapes(s.tc) {
			for _, v := range samples[s.tc.Kind] {
				body := encodeShape(t, op, v)
				word, _, _, _ := decodeBoth(op, body)
				if got, err := s.get(word); err != nil || !sameBits(got, v) {
					t.Fatalf("%v %s: Get = %#v, %v; want %#v", s.tc, op.Name, got, err, v)
				}
				for cut := 0; cut <= len(body); cut++ {
					checkWordMatchesBoxed(t, op, s.get, body[:cut])
				}
			}
		}
	}
}

// TestEnumAndBlockingResultsStayBoxed: an enum first result keeps its
// label-range check, so it is decoded boxed, and so is every result of a
// blocking call.
func TestEnumAndBlockingResultsStayBoxed(t *testing.T) {
	enum := &Operation{Name: "color", Result: typecode.EnumOf("Color", "red", "green")}
	for _, ord := range []uint32{1, 2} {
		body := encodeShape(t, &Operation{Result: typecode.TCULong}, ord)
		checkWordMatchesBoxed(t, enum, getAs[uint32], body)
		if _, _, err, _ := decodeBoth(enum, body); (err == nil) != (ord < 2) {
			t.Fatalf("enum ordinal %d: %v", ord, err)
		}
	}
	op := &Operation{Name: "ret", Result: typecode.TCDouble}
	_, boxed, _, err := decodeBoth(op, encodeShape(t, op, 2.5))
	if vals, _ := boxed.Values(); err != nil || len(vals) != 1 || vals[0] != 2.5 {
		t.Fatalf("blocking call decoded %v, %v", vals, err)
	}
}

// FuzzWordDecode: on arbitrary reply bodies, for every scalar kind and
// every position a first result can take, the word decode fails exactly
// when the boxed decode fails, with the same error, and otherwise yields
// the same values bit for bit.
func FuzzWordDecode(f *testing.F) {
	for _, s := range scalarTCs {
		for _, op := range wordShapes(s.tc) {
			zero, err := typecode.Unmarshal(cdr.NewDecoder(make([]byte, 8)), s.tc)
			if err != nil {
				f.Fatal(err)
			}
			body := encodeShape(f, op, zero)
			f.Add(body)
			f.Add(body[:len(body)/2])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, s := range scalarTCs {
			for _, op := range wordShapes(s.tc) {
				checkWordMatchesBoxed(t, op, s.get, body)
			}
		}
	})
}
