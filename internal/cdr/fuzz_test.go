package cdr

import (
	"errors"
	"testing"
)

// FuzzDecoder drives an input-chosen sequence of Get* calls over arbitrary
// bytes: no call panics, the position never passes the end, and the first
// error sticks and wraps ErrTruncated.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{0, 0, 0, 1, 0})
	f.Add([]byte{9}, []byte{0, 0, 0, 1, 0})
	e := NewEncoder(64)
	e.PutString("op")
	e.PutDoubles([]float64{1, 2})
	e.PutLongs([]int32{3})
	f.Add([]byte{7, 9, 11}, e.Bytes())
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		d := NewDecoder(data)
		var sticky error
		for _, op := range ops {
			n := int(op >> 4) // an argument for the calls that take one
			switch op % 16 {
			case 0:
				d.GetBool()
			case 1:
				d.GetOctet()
			case 2:
				d.GetShort()
			case 3:
				d.GetULong()
			case 4:
				d.GetLongLong()
			case 5:
				d.GetFloat()
			case 6:
				d.GetDouble()
			case 7:
				d.GetString()
			case 8:
				d.GetStringInterned()
			case 9:
				d.GetDoubles()
			case 10:
				d.GetLongs()
			case 11:
				d.GetOctets()
			case 12:
				d.GetRaw(n)
			case 13:
				d.AlignedView(1<<(n%4), n)
			case 14:
				d.GetSeqLen(n)
			case 15:
				d.GetFloatsInto(make([]float32, n))
			}
			if d.Remaining() < 0 {
				t.Fatalf("op %d left Remaining %d of a %d-byte buffer", op, d.Remaining(), len(data))
			}
			if err := d.Err(); err != nil {
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
