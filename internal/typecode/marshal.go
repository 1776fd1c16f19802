package typecode

import (
	"fmt"

	"pardis/internal/cdr"
)

// Go value mapping used by Marshal/Unmarshal:
//
//	boolean            bool
//	octet, char        byte
//	short/ushort       int16 / uint16
//	long/ulong         int32 / uint32
//	long long/ulong... int64 / uint64
//	float, double      float32, float64
//	string             string
//	enum               uint32 (label ordinal)
//	struct             *StructVal
//	sequence<octet>    []byte
//	sequence<long>     []int32
//	sequence<double>   []float64
//	sequence<T> else   []any
//	dsequence<T>       same as sequence<T> (a fully-gathered value); the
//	                   distributed transfer path in the ORB marshals
//	                   per-thread segments with the same element routines.
//	Object             string (stringified object reference)

// typedVal asserts v to T, reporting a mismatch as an error rather than a
// panic — a mistyped value from application code must not take down the
// peer's dispatch loop.
func typedVal[T any](tc *TypeCode, v any) (T, error) {
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("typecode: value for %v is %T, want %T", tc, v, zero)
	}
	return t, nil
}

// Marshal appends v (of type tc) to the encoder.
func Marshal(e *cdr.Encoder, tc *TypeCode, v any) error {
	switch tc.Kind {
	case Void:
		return nil
	case Bool:
		x, err := typedVal[bool](tc, v)
		if err != nil {
			return err
		}
		e.PutBool(x)
	case Octet, Char:
		x, err := typedVal[byte](tc, v)
		if err != nil {
			return err
		}
		e.PutOctet(x)
	case Short:
		x, err := typedVal[int16](tc, v)
		if err != nil {
			return err
		}
		e.PutShort(x)
	case UShort:
		x, err := typedVal[uint16](tc, v)
		if err != nil {
			return err
		}
		e.PutUShort(x)
	case Long:
		x, err := typedVal[int32](tc, v)
		if err != nil {
			return err
		}
		e.PutLong(x)
	case ULong:
		x, err := typedVal[uint32](tc, v)
		if err != nil {
			return err
		}
		e.PutULong(x)
	case LongLong:
		x, err := typedVal[int64](tc, v)
		if err != nil {
			return err
		}
		e.PutLongLong(x)
	case ULongLong:
		x, err := typedVal[uint64](tc, v)
		if err != nil {
			return err
		}
		e.PutULongLong(x)
	case Float:
		x, err := typedVal[float32](tc, v)
		if err != nil {
			return err
		}
		e.PutFloat(x)
	case Double:
		x, err := typedVal[float64](tc, v)
		if err != nil {
			return err
		}
		e.PutDouble(x)
	case String, ObjRef:
		x, err := typedVal[string](tc, v)
		if err != nil {
			return err
		}
		e.PutString(x)
	case Enum:
		ord, err := typedVal[uint32](tc, v)
		if err != nil {
			return err
		}
		if int(ord) >= len(tc.Labels) {
			return fmt.Errorf("typecode: enum %s ordinal %d out of range", tc.Name, ord)
		}
		e.PutULong(ord)
	case Struct:
		sv, ok := v.(*StructVal)
		if !ok {
			return fmt.Errorf("typecode: struct %s: value is %T, want *StructVal", tc.Name, v)
		}
		if len(sv.Fields) != len(tc.Fields) {
			return fmt.Errorf("typecode: struct %s: %d values for %d fields", tc.Name, len(sv.Fields), len(tc.Fields))
		}
		for i, f := range tc.Fields {
			if err := Marshal(e, f.Type, sv.Fields[i]); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
	case Union:
		uv, err := typedVal[*UnionVal](tc, v)
		if err != nil {
			return err
		}
		arm := tc.CaseFor(uv.Disc)
		if arm == nil {
			return fmt.Errorf("typecode: union %s has no arm for discriminant %d", tc.Name, uv.Disc)
		}
		if err := marshalDisc(e, tc.Disc, uv.Disc); err != nil {
			return fmt.Errorf("typecode: union %s discriminant: %w", tc.Name, err)
		}
		if err := Marshal(e, arm.Field.Type, uv.V); err != nil {
			return fmt.Errorf("union arm %s: %w", arm.Field.Name, err)
		}
	case Sequence, DSequence:
		return marshalSeq(e, tc, v)
	default:
		return fmt.Errorf("typecode: cannot marshal kind %v", tc.Kind)
	}
	return nil
}

// marshalDisc writes a union discriminant per its declared type.
func marshalDisc(e *cdr.Encoder, disc *TypeCode, v int64) error {
	switch disc.Kind {
	case Bool:
		e.PutBool(v != 0)
	case Octet, Char:
		e.PutOctet(byte(v))
	case Short:
		e.PutShort(int16(v))
	case UShort:
		e.PutUShort(uint16(v))
	case Long:
		e.PutLong(int32(v))
	case ULong, Enum:
		e.PutULong(uint32(v))
	case LongLong:
		e.PutLongLong(v)
	case ULongLong:
		e.PutULongLong(uint64(v))
	default:
		return fmt.Errorf("bad discriminant kind %v", disc.Kind)
	}
	return nil
}

// unmarshalDisc reads a union discriminant per its declared type.
func unmarshalDisc(d *cdr.Decoder, disc *TypeCode) (int64, error) {
	var v int64
	switch disc.Kind {
	case Bool:
		if d.GetBool() {
			v = 1
		}
	case Octet, Char:
		v = int64(d.GetOctet())
	case Short:
		v = int64(d.GetShort())
	case UShort:
		v = int64(d.GetUShort())
	case Long:
		v = int64(d.GetLong())
	case ULong, Enum:
		v = int64(d.GetULong())
	case LongLong:
		v = d.GetLongLong()
	case ULongLong:
		v = int64(d.GetULongLong())
	default:
		return 0, fmt.Errorf("bad discriminant kind %v", disc.Kind)
	}
	return v, d.Err()
}

func marshalSeq(e *cdr.Encoder, tc *TypeCode, v any) error {
	n := seqLen(v)
	if tc.Bound > 0 && n > tc.Bound {
		return fmt.Errorf("typecode: sequence length %d exceeds bound %d", n, tc.Bound)
	}
	switch elems := v.(type) {
	case []byte:
		if tc.Elem.Kind != Octet && tc.Elem.Kind != Char {
			return fmt.Errorf("typecode: []byte value for sequence<%v>", tc.Elem)
		}
		e.PutOctets(elems)
	case []float64:
		if tc.Elem.Kind != Double {
			return fmt.Errorf("typecode: []float64 value for sequence<%v>", tc.Elem)
		}
		e.PutDoubles(elems)
	case []int32:
		if tc.Elem.Kind != Long {
			return fmt.Errorf("typecode: []int32 value for sequence<%v>", tc.Elem)
		}
		e.PutLongs(elems)
	case []string:
		if tc.Elem.Kind != String {
			return fmt.Errorf("typecode: []string value for sequence<%v>", tc.Elem)
		}
		e.PutSeqLen(len(elems))
		for _, s := range elems {
			e.PutString(s)
		}
	case []any:
		e.PutSeqLen(len(elems))
		for i, el := range elems {
			if err := Marshal(e, tc.Elem, el); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case nil:
		e.PutSeqLen(0)
	default:
		return fmt.Errorf("typecode: unsupported sequence value %T", v)
	}
	return nil
}

func seqLen(v any) int {
	switch s := v.(type) {
	case []byte:
		return len(s)
	case []float64:
		return len(s)
	case []int32:
		return len(s)
	case []string:
		return len(s)
	case []any:
		return len(s)
	case nil:
		return 0
	}
	return 0
}

// Unmarshal decodes a value of type tc.
func Unmarshal(d *cdr.Decoder, tc *TypeCode) (any, error) {
	var v any
	switch tc.Kind {
	case Void:
		return nil, nil
	case Bool:
		v = d.GetBool()
	case Octet, Char:
		v = d.GetOctet()
	case Short:
		v = d.GetShort()
	case UShort:
		v = d.GetUShort()
	case Long:
		v = d.GetLong()
	case ULong:
		v = d.GetULong()
	case LongLong:
		v = d.GetLongLong()
	case ULongLong:
		v = d.GetULongLong()
	case Float:
		v = d.GetFloat()
	case Double:
		v = d.GetDouble()
	case String, ObjRef:
		v = d.GetString()
	case Enum:
		ord := d.GetULong()
		if d.Err() == nil && int(ord) >= len(tc.Labels) {
			return nil, fmt.Errorf("typecode: enum %s ordinal %d out of range", tc.Name, ord)
		}
		v = ord
	case Struct:
		sv := &StructVal{TC: tc, Fields: make([]any, len(tc.Fields))}
		for i, f := range tc.Fields {
			fv, err := Unmarshal(d, f.Type)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
			sv.Fields[i] = fv
		}
		v = sv
	case Union:
		disc, err := unmarshalDisc(d, tc.Disc)
		if err != nil {
			return nil, fmt.Errorf("typecode: union %s discriminant: %w", tc.Name, err)
		}
		arm := tc.CaseFor(disc)
		if arm == nil {
			return nil, fmt.Errorf("typecode: union %s has no arm for discriminant %d", tc.Name, disc)
		}
		av, err := Unmarshal(d, arm.Field.Type)
		if err != nil {
			return nil, fmt.Errorf("union arm %s: %w", arm.Field.Name, err)
		}
		v = &UnionVal{TC: tc, Disc: disc, V: av}
	case Sequence, DSequence:
		return unmarshalSeq(d, tc)
	default:
		return nil, fmt.Errorf("typecode: cannot unmarshal kind %v", tc.Kind)
	}
	return v, d.Err()
}

func unmarshalSeq(d *cdr.Decoder, tc *TypeCode) (any, error) {
	switch tc.Elem.Kind {
	case Octet, Char:
		b := d.GetOctets()
		if d.Borrowed() {
			// The caller guarantees the wire buffer outlives the decoded
			// value; hand out the aliasing view (true zero-copy).
			return checkBound(d, tc, b, len(b))
		}
		// Copy: decoder results alias the network buffer, which the
		// transport may reuse.
		out := make([]byte, len(b))
		copy(out, b)
		return checkBound(d, tc, out, len(out))
	case Double:
		out := d.GetDoubles()
		return checkBound(d, tc, out, len(out))
	case Long:
		out := d.GetLongs()
		return checkBound(d, tc, out, len(out))
	case String:
		n := d.GetSeqLen(4)
		out := make([]string, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			out = append(out, d.GetString())
		}
		return checkBound(d, tc, out, len(out))
	default:
		n := d.GetSeqLen(1)
		out := make([]any, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			el, err := Unmarshal(d, tc.Elem)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out = append(out, el)
		}
		return checkBound(d, tc, out, len(out))
	}
}

func checkBound(d *cdr.Decoder, tc *TypeCode, v any, n int) (any, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	if tc.Bound > 0 && n > tc.Bound {
		return nil, fmt.Errorf("typecode: sequence length %d exceeds bound %d", n, tc.Bound)
	}
	return v, nil
}
