package cdr

import (
	"fmt"
	"testing"
)

// The bulk primitives and the encoder pool exist to keep the
// distributed-sequence hot path allocation-free; these tests pin that down
// so a regression shows up as a test failure, not a benchmark drift.

func TestBulkEncodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	doubles := make([]float64, 1024)
	longs := make([]int32, 1024)
	floats := make([]float32, 1024)
	e := GetEncoder(16*len(doubles) + 64)
	defer e.Release()
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		e.PutDoubles(doubles)
		e.PutLongs(longs)
		e.PutFloats(floats)
	})
	if allocs != 0 {
		t.Fatalf("bulk encode into warm encoder: %v allocs/run, want 0", allocs)
	}
}

func TestBulkDecodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	e := NewEncoder(16 * 1024)
	e.PutDoubles(make([]float64, 1024))
	e.PutLongs(make([]int32, 512))
	wire := e.Bytes()
	doubles := make([]float64, 1024)
	longs := make([]int32, 512)
	d := NewDecoder(nil)
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset(wire)
		if d.GetSeqLen(8) != len(doubles) || !d.GetDoublesInto(doubles) {
			t.Fatal("double decode failed")
		}
		if d.GetSeqLen(4) != len(longs) || !d.GetLongsInto(longs) {
			t.Fatal("long decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("bulk decode into caller storage: %v allocs/run, want 0", allocs)
	}
}

func TestEncoderPoolReuseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	// Warm the pool so the first Get inside the loop finds a buffer.
	GetEncoder(4096).Release()
	allocs := testing.AllocsPerRun(100, func() {
		e := GetEncoder(4096)
		e.PutULong(7)
		e.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled Get/Release cycle: %v allocs/run, want 0", allocs)
	}
}

func TestEncoderPoolDropsOversizedBuffers(t *testing.T) {
	e := GetEncoder(maxPooledCap + 1)
	e.Release()
	// Whatever the pool hands out next must not be the oversized buffer.
	e2 := GetEncoder(16)
	if cap(e2.Bytes()) > maxPooledCap {
		t.Fatalf("pool retained %d-byte buffer beyond cap %d", cap(e2.Bytes()), maxPooledCap)
	}
	e2.Release()
}

func TestDecoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.PutLong(41)
	d := NewDecoder([]byte{1})
	d.GetString() // force a sticky error
	if d.Err() == nil {
		t.Fatal("expected sticky error")
	}
	d.Reset(e.Bytes())
	if got := d.GetLong(); got != 41 || d.Err() != nil {
		t.Fatalf("reset decoder: got %d, err %v", got, d.Err())
	}
}

// TestInternTableRecoversFromFlood: a burst of more distinct names than the
// intern table holds must not end interning for the rest of the process —
// the table stays bounded, and a name still in use afterwards decodes
// without allocating again.
func TestInternTableRecoversFromFlood(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	decode := func(wire []byte) string {
		d := GetDecoder(wire)
		defer d.Release()
		return d.GetStringInterned()
	}
	encode := func(s string) []byte {
		e := NewEncoder(len(s) + 8)
		e.PutString(s)
		return e.Bytes()
	}
	for i := 0; i < maxInternedStrings+100; i++ {
		decode(encode(fmt.Sprintf("one-off-binding#%d", i)))
	}
	internMu.RLock()
	n := len(interned)
	internMu.RUnlock()
	if n > maxInternedStrings {
		t.Fatalf("intern table holds %d strings, bound %d", n, maxInternedStrings)
	}
	hot := encode("hot-object-key")
	decode(hot) // re-enters the table
	if allocs := testing.AllocsPerRun(100, func() { decode(hot) }); allocs != 0 {
		t.Fatalf("a name in steady use decodes at %v allocs/run after a flood, want 0", allocs)
	}
}
