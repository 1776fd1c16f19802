package core

import (
	"encoding/binary"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/pgiop"
)

// watchedHolder is a holder that checks every run it is asked to decode
// against its local storage and counts the elements it is asked to write.
type watchedHolder struct {
	dseq.Distributed
	t       *testing.T
	written int
}

func (h *watchedHolder) DecodeRuns(d *cdr.Decoder, runs []dist.Run) error {
	for _, r := range runs {
		if r.Len < 0 || r.DstOff < 0 || r.DstOff+r.Len > h.LocalLen() {
			h.t.Fatalf("run [%d+%d] reaches outside local storage %d", r.DstOff, r.Len, h.LocalLen())
		}
		h.written += r.Len
	}
	return h.Distributed.DecodeRuns(d, runs)
}

// FuzzApplySegment feeds arbitrary runs and payload to the one segment
// applier, for a holder of arbitrary local length and an arbitrary count of
// elements still owed: no panic, no write outside local storage, never more
// than the owed elements written, and a segment reported applied is one
// written whole.
func FuzzApplySegment(f *testing.F) {
	run := func(global, n, off int32) []byte {
		b := make([]byte, 12)
		binary.BigEndian.PutUint32(b, uint32(global))
		binary.BigEndian.PutUint32(b[4:], uint32(n))
		binary.BigEndian.PutUint32(b[8:], uint32(off))
		return b
	}
	pay := make([]byte, 8*4)
	f.Add(uint8(4), int16(4), run(0, 4, 0), pay)                          // fits exactly
	f.Add(uint8(8), int16(8), append(run(0, 2, 0), run(6, 2, 6)...), pay) // two runs
	f.Add(uint8(4), int16(2), run(0, 4, 0), pay)                          // more than owed
	f.Add(uint8(4), int16(4), run(0, 4, 1), pay)                          // past local storage
	f.Add(uint8(4), int16(4), run(0, -1, 0), pay)                         // negative length
	f.Add(uint8(4), int16(4), run(0, 4, 0), pay[:8])                      // short payload
	f.Add(uint8(0), int16(-1), run(0, 0, 0), []byte(nil))                 // owed nothing
	f.Fuzz(func(t *testing.T, localLen uint8, remaining int16, runs, payload []byte) {
		a := &pgiop.ArgStream{Payload: payload}
		for ; len(runs) >= 12; runs = runs[12:] {
			a.Runs = append(a.Runs, pgiop.Run{
				Global: int32(binary.BigEndian.Uint32(runs)),
				Len:    int32(binary.BigEndian.Uint32(runs[4:])),
				DstOff: int32(binary.BigEndian.Uint32(runs[8:])),
			})
		}
		h := &watchedHolder{Distributed: dseq.Sequential(make([]float64, localLen), dseq.Float64Codec{}), t: t}
		var scratch []dist.Run
		n, err := ApplySegment(h, a, int(remaining), &scratch)
		if h.written > max(int(remaining), 0) {
			t.Fatalf("%d elements written, %d owed", h.written, remaining)
		}
		if err != nil && n != 0 {
			t.Fatalf("failed segment reports %d elements applied: %v", n, err)
		}
		if err == nil && n != h.written {
			t.Fatalf("segment reports %d elements applied, %d written", n, h.written)
		}
	})
}
