package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: 128 linear
// sub-buckets per power of two, so every bucket is at most 0.8 % wide. It is
// fixed-size and pointer-free, which keeps per-operation timing from growing
// the heap (and moving the collector) of the process being measured.
type hist struct {
	counts [histSlots]uint64
	n      uint64
	sumNS  float64
}

const (
	histSub   = 128
	histSlots = 40 * histSub // values up to 2^46 ns
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 8
	i := (e+1)*histSub + int(ns>>uint(e)) - histSub
	if i >= histSlots {
		return histSlots - 1
	}
	return i
}

// histBounds returns the bucket's lowest value and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sumNS += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNS += o.sumNS
}

// quantile returns the q-quantile in nanoseconds, interpolated inside the
// bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, width := histBounds(i)
			return lo + width*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0 // not reached: the counts add up to n >= target
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sumNS / float64(h.n)
}

// median of a copy of v; NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max-min)/median, the run-to-run figure printed beside every
// end-to-end median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// splitmix64 derives every generated input from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
