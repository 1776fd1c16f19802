package dist

// Chunk splitting for streamed segment transfer. A move's runs concatenate
// into one element sequence (run order); a chunk is the sub-slice of that
// sequence covering elements [off, off+n). Splitting a run preserves its
// contiguity invariant — Global, SrcOff and DstOff all advance together
// inside one run — so a sub-run is the original with every coordinate
// shifted by the cut point. Chunks are therefore self-describing: a
// receiver reconstructs the sender's sub-runs from (move runs, off, n)
// alone, without knowing the sender's chunk size.

// SplitRuns appends to dst the sub-runs of runs covering chunk elements
// [off, off+n), counted in run order, and returns the extended slice.
// Callers pass a reusable scratch slice (possibly dst[:0]) to keep the
// per-chunk split allocation-free at steady state. off and n are clamped
// to the runs' total element count.
func SplitRuns(runs []Run, off, n int, dst []Run) []Run {
	if n <= 0 {
		return dst
	}
	pos := 0 // element offset of the current run within the concatenation
	for _, r := range runs {
		if n <= 0 {
			break
		}
		if off >= pos+r.Len {
			pos += r.Len
			continue
		}
		skip := 0
		if off > pos {
			skip = off - pos
		}
		take := r.Len - skip
		if take > n {
			take = n
		}
		dst = append(dst, Run{
			Global: r.Global + skip,
			Len:    take,
			SrcOff: r.SrcOff + skip,
			DstOff: r.DstOff + skip,
		})
		off += take
		n -= take
		pos += r.Len
	}
	return dst
}

// ChunkElems converts a chunk byte budget into a per-chunk element count:
// at least one element per chunk, with non-positive element sizes treated
// as the 8-byte default estimate.
func ChunkElems(chunkBytes, elemSize int) int {
	if elemSize <= 0 {
		elemSize = 8
	}
	n := chunkBytes / elemSize
	if n < 1 {
		n = 1
	}
	return n
}
