package dist

import (
	"fmt"
	"math"

	"pardis/internal/cdr"
)

// EncodeTemplate writes a distribution template in wire form (kind, root,
// weights) so a peer can instantiate the identical layout.
func EncodeTemplate(e *cdr.Encoder, t Template) {
	e.PutOctet(byte(t.Kind))
	e.PutLong(int32(t.Root))
	e.PutDoubles(t.Weights) // bulk: byte-identical to a per-element loop
}

// DecodeTemplate reads a template written by EncodeTemplate. It rejects
// what no thread count could instantiate: an unknown kind, a negative
// collapsed root, a weighted template without weights, and weights Layout
// could not apportion by — negative, NaN or infinite ones, or ones whose sum
// is not finite. Whether the template fits a given thread count (one weight
// per thread, the root among them) is the caller's to check against the
// count it will instantiate with.
func DecodeTemplate(d *cdr.Decoder) (Template, error) {
	k := Kind(d.GetOctet())
	root := int(d.GetLong())
	weights := d.GetDoubles()
	if err := d.Err(); err != nil {
		return Template{}, err
	}
	switch {
	case !knownKind(k):
		return Template{}, fmt.Errorf("dist: bad template kind %d on wire", k)
	case k == Collapsed && root < 0:
		return Template{}, fmt.Errorf("dist: collapsed root %d on wire", root)
	case k == Weighted && len(weights) == 0:
		return Template{}, fmt.Errorf("dist: weighted template without weights on wire")
	}
	total := 0.0
	for _, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return Template{}, fmt.Errorf("dist: weight %v on wire", w)
		}
		total += w
	}
	if math.IsInf(total, 1) {
		return Template{}, fmt.Errorf("dist: weights overflow on wire")
	}
	return Template{Kind: k, Root: root, Weights: weights}, nil
}

func knownKind(k Kind) bool {
	switch k {
	case Block, Cyclic, Collapsed, Weighted:
		return true
	}
	return false
}

// EncodeLayout writes a concrete layout (including explicit ranges for
// weighted layouts) so the receiver reconstructs identical ownership.
func EncodeLayout(e *cdr.Encoder, l Layout) {
	e.PutOctet(byte(l.Kind))
	e.PutLong(int32(l.N))
	e.PutLong(int32(l.P))
	e.PutLong(int32(l.Root))
	if l.Kind == Cyclic {
		return
	}
	e.PutSeqLen(len(l.counts))
	for i := range l.counts {
		e.PutLong(int32(l.starts[i]))
		e.PutLong(int32(l.counts[i]))
	}
}

// DecodeLayout reads a layout written by EncodeLayout. It accepts only what
// Template.Layout can produce — a known kind, and for the contiguous kinds
// ranges laid end to end from 0 that cover exactly N (a collapsed layout's
// all on its root) — so every index of an accepted layout locates.
func DecodeLayout(d *cdr.Decoder) (Layout, error) {
	l := Layout{
		Kind: Kind(d.GetOctet()),
		N:    int(d.GetLong()),
		P:    int(d.GetLong()),
		Root: int(d.GetLong()),
	}
	if err := d.Err(); err != nil {
		return Layout{}, err
	}
	if !knownKind(l.Kind) {
		return Layout{}, fmt.Errorf("dist: bad layout kind %d on wire", l.Kind)
	}
	if l.N < 0 || l.P <= 0 {
		return Layout{}, fmt.Errorf("dist: bad layout dims n=%d p=%d on wire", l.N, l.P)
	}
	if l.Kind == Cyclic {
		return l, nil
	}
	n := d.GetSeqLen(8)
	if n != l.P {
		if err := d.Err(); err != nil {
			return Layout{}, err
		}
		return Layout{}, fmt.Errorf("dist: layout has %d ranges for %d threads", n, l.P)
	}
	total := 0
	l.starts = make([]int, 0, n)
	l.counts = make([]int, 0, n)
	for i := 0; i < n; i++ {
		s := int(d.GetLong())
		c := int(d.GetLong())
		if c < 0 {
			return Layout{}, fmt.Errorf("dist: negative count on wire")
		}
		if s != total {
			return Layout{}, fmt.Errorf("dist: range %d starts at %d, want %d", i, s, total)
		}
		l.starts = append(l.starts, s)
		l.counts = append(l.counts, c)
		total += c
	}
	if err := d.Err(); err != nil {
		return Layout{}, err
	}
	if total != l.N {
		return Layout{}, fmt.Errorf("dist: layout ranges cover %d of %d elements", total, l.N)
	}
	if l.Kind == Collapsed && (l.Root < 0 || l.Root >= l.P || l.counts[l.Root] != l.N) {
		return Layout{}, fmt.Errorf("dist: collapsed layout's root %d does not own its %d elements", l.Root, l.N)
	}
	return l, nil
}
