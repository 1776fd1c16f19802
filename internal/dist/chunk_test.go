package dist

import (
	"math/rand"
	"testing"
)

// expandMove materializes a run list as (global, srcOff, dstOff) triples in
// run order — the reference against which chunk splits are compared.
func expandRuns(runs []Run) [][3]int {
	var out [][3]int
	for _, r := range runs {
		for i := 0; i < r.Len; i++ {
			out = append(out, [3]int{r.Global + i, r.SrcOff + i, r.DstOff + i})
		}
	}
	return out
}

func TestSplitRunsCoversEveryChunking(t *testing.T) {
	runs := []Run{
		{Global: 0, Len: 5, SrcOff: 10, DstOff: 0},
		{Global: 40, Len: 1, SrcOff: 2, DstOff: 5},
		{Global: 50, Len: 7, SrcOff: 20, DstOff: 6},
	}
	want := expandRuns(runs)
	total := len(want)
	for chunk := 1; chunk <= total+3; chunk++ {
		var got [][3]int
		var scratch []Run
		for off := 0; off < total; off += chunk {
			n := chunk
			if off+n > total {
				n = total - off
			}
			scratch = SplitRuns(runs, off, n, scratch[:0])
			got = append(got, expandRuns(scratch)...)
		}
		if len(got) != total {
			t.Fatalf("chunk=%d: %d elements, want %d", chunk, len(got), total)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d element %d: got %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestSplitRunsClampsAndEmpty(t *testing.T) {
	runs := []Run{{Global: 0, Len: 4, SrcOff: 0, DstOff: 0}}
	if got := SplitRuns(runs, 0, 0, nil); len(got) != 0 {
		t.Fatalf("n=0 produced %v", got)
	}
	// n beyond the total clamps to what exists.
	got := SplitRuns(runs, 2, 100, nil)
	if len(got) != 1 || got[0].Len != 2 || got[0].Global != 2 {
		t.Fatalf("clamped split = %v", got)
	}
	if got := SplitRuns(runs, 10, 5, nil); len(got) != 0 {
		t.Fatalf("off past end produced %v", got)
	}
}

// TestSplitRunsRandomSchedules splits the moves of random redistribution
// schedules at random chunk sizes and checks the concatenated sub-runs
// reproduce the move exactly.
func TestSplitRunsRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		p := 1 + rng.Intn(8)
		src := BlockTemplate().Layout(n, p)
		dst := CyclicTemplate().Layout(n, p)
		if trial%2 == 1 {
			src, dst = dst, src
		}
		sched := NewSchedule(src, dst)
		for _, m := range sched.Moves {
			want := expandRuns(m.Runs)
			chunk := 1 + rng.Intn(len(want)+2)
			var got [][3]int
			var scratch []Run
			for off := 0; off < len(want); off += chunk {
				c := chunk
				if off+c > len(want) {
					c = len(want) - off
				}
				scratch = SplitRuns(m.Runs, off, c, scratch[:0])
				got = append(got, expandRuns(scratch)...)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d elements, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d element %d: got %v, want %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestChunkElems(t *testing.T) {
	cases := []struct{ bytes, size, want int }{
		{0, 8, 1}, // never below one element
		{-1, 8, 1},
		{64, 8, 8},   // exact
		{100, 8, 12}, // floor
		{4, 8, 1},    // never below one element
		{64, 0, 8},   // unknown element size falls back to 8 bytes
		{64, -3, 8},
		{1 << 20, 1, 1 << 20},
	}
	for _, c := range cases {
		if got := ChunkElems(c.bytes, c.size); got != c.want {
			t.Errorf("ChunkElems(%d, %d) = %d, want %d", c.bytes, c.size, got, c.want)
		}
	}
}
