package dist

import (
	"bytes"
	"math"
	"testing"

	"pardis/internal/cdr"
)

func newTestEncoder() *cdr.Encoder               { return cdr.NewEncoder(128) }
func newTestDecoder(e *cdr.Encoder) *cdr.Decoder { return cdr.NewDecoder(e.Bytes()) }

func TestWireRejectsCorruptLayouts(t *testing.T) {
	// Truncation at every cut must error, never panic.
	e := newTestEncoder()
	EncodeLayout(e, Proportions(1, 2, 3).Layout(60, 3))
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeLayout(cdr.NewDecoder(full[:cut])); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
	// A layout whose ranges don't sum to N is rejected.
	bad := cdr.NewEncoder(64)
	bad.PutOctet(byte(Block))
	bad.PutLong(10) // N
	bad.PutLong(2)  // P
	bad.PutLong(0)  // root
	bad.PutSeqLen(2)
	bad.PutLong(0)
	bad.PutLong(3) // counts sum to 7, not 10
	bad.PutLong(3)
	bad.PutLong(4)
	if _, err := DecodeLayout(cdr.NewDecoder(bad.Bytes())); err == nil {
		t.Fatal("short-coverage layout accepted")
	}
	// Unknown template kind rejected.
	bt := cdr.NewEncoder(16)
	bt.PutOctet(99)
	bt.PutLong(0)
	bt.PutSeqLen(0)
	if _, err := DecodeTemplate(cdr.NewDecoder(bt.Bytes())); err == nil {
		t.Fatal("bad template kind accepted")
	}
}

// TestWireRejectsLayoutsLocateCannotWalk: counts that sum to N are not enough
// — ranges must start at 0 and follow on from each other, and a collapsed
// layout's elements must all be on its root, as every Template.Layout lays
// them out. Each of these decoded before, and BLOCK starts 3, 9 then panicked
// in Locate(0).
func TestWireRejectsLayoutsLocateCannotWalk(t *testing.T) {
	for _, c := range []struct {
		name          string
		kind          Kind
		n, p, root    int32
		starts, count []int32
	}{
		{"block off the start", Block, 4, 2, 0, []int32{3, 9}, []int32{2, 2}},
		{"weighted overlap", Weighted, 4, 2, 0, []int32{0, 1}, []int32{2, 2}},
		{"weighted gap", Weighted, 4, 2, 0, []int32{0, 2}, []int32{1, 3}},
		{"collapsed off its root", Collapsed, 4, 2, 1, []int32{0, 4}, []int32{4, 0}},
		{"collapsed root out of range", Collapsed, 4, 2, 2, []int32{0, 4}, []int32{4, 0}},
		{"unknown kind", Kind(9), 4, 2, 0, []int32{0, 2}, []int32{2, 2}},
	} {
		e := cdr.NewEncoder(64)
		e.PutOctet(byte(c.kind))
		e.PutLong(c.n)
		e.PutLong(c.p)
		e.PutLong(c.root)
		e.PutSeqLen(len(c.starts))
		for i := range c.starts {
			e.PutLong(c.starts[i])
			e.PutLong(c.count[i])
		}
		if l, err := DecodeLayout(cdr.NewDecoder(e.Bytes())); err == nil {
			t.Errorf("%s: accepted %v", c.name, l)
		}
	}
	for _, w := range [][]float64{{1, -1}, {math.NaN()}, {math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64}} {
		e := cdr.NewEncoder(64)
		EncodeTemplate(e, Template{Kind: Weighted, Weights: w})
		if _, err := DecodeTemplate(cdr.NewDecoder(e.Bytes())); err == nil {
			t.Errorf("weights %v accepted", w)
		}
	}
}

// FuzzDecodeLayout: a layout DecodeLayout accepts is one every index of
// locates — Locate, then GlobalIndex back to the same index, and the ranks'
// counts sum to N — and it re-encodes to exactly the bytes it was read from.
// The input is the wire form field by field (the three pad bytes after the
// kind octet are the encoder's, which the decoder skips unread); very long
// layouts are checked on evenly spread indices.
func FuzzDecodeLayout(f *testing.F) {
	seed := func(l Layout) {
		e := cdr.NewEncoder(64)
		EncodeLayout(e, l)
		b := e.Bytes()
		f.Add(b[0], b[4:])
	}
	seed(BlockTemplate().Layout(10, 3))
	seed(CyclicTemplate().Layout(7, 2))
	seed(CollapsedOn(1).Layout(5, 3))
	seed(Proportions(1, 0, 3).Layout(9, 3))
	seed(BlockTemplate().Layout(0, 1))
	f.Fuzz(func(t *testing.T, kind byte, rest []byte) {
		frame := append([]byte{kind, 0, 0, 0}, rest...)
		d := cdr.NewDecoder(frame)
		l, err := DecodeLayout(d)
		if err != nil {
			return
		}
		re := cdr.NewEncoder(len(frame))
		EncodeLayout(re, l)
		if read := len(frame) - d.Remaining(); !bytes.Equal(re.Bytes(), frame[:read]) {
			t.Fatalf("%v re-encodes to % x, read from % x", l, re.Bytes(), frame[:read])
		}
		const probes = 4096
		step := 1
		if l.N > probes {
			step = l.N / probes
		}
		for g := 0; g < l.N; g += step {
			checkIndex(t, l, g)
		}
		if l.N > 0 {
			checkIndex(t, l, l.N-1)
		}
		if l.P <= probes {
			total := 0
			for r := 0; r < l.P; r++ {
				total += l.Count(r)
			}
			if total != l.N {
				t.Fatalf("%v: ranks own %d elements", l, total)
			}
		}
	})
}

func checkIndex(t *testing.T, l Layout, g int) {
	t.Helper()
	r, local := l.Locate(g)
	if back := l.GlobalIndex(r, local); back != g {
		t.Fatalf("%v: index %d locates to (%d, %d), which maps back to %d", l, g, r, local, back)
	}
}
