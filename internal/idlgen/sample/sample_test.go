// Package sample is a compiled-in probe of the IDL compiler's output: the
// committed zz_generated.go covers typed structs (nested), enums,
// attributes, oneway, raises, and distributed sequences, and this test
// drives the generated stubs and skeleton end to end.
package sample

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// geometryImpl implements the generated GeometryServant interface with
// fully typed signatures.
type geometryImpl struct {
	mu    sync.Mutex // one impl serves both SPMD ranks
	hints []string
}

func (g *geometryImpl) Length(_ *poa.Context, s *Segment) (float64, error) {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	return math.Hypot(dx, dy), nil
}

func (g *geometryImpl) Midpointed(_ *poa.Context, s *Segment) (*Segment, *Point, error) {
	mid := &Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
	out := &Segment{A: s.A, B: s.B, Label: s.Label + "-mid"}
	return out, mid, nil
}

func (g *geometryImpl) Plan(_ *poa.Context, from string) ([]any, error) {
	if from == "nowhere" {
		return nil, errors.New("no_path: cannot start from nowhere")
	}
	// path = sequence<point>: elements travel as wire structs.
	p1 := (&Point{X: 1, Y: 2}).AsStructVal()
	p2 := (&Point{X: 3, Y: 4}).AsStructVal()
	return []any{p1, p2}, nil
}

func (g *geometryImpl) GetVersion(_ *poa.Context) (int32, error) { return 7, nil }

func (g *geometryImpl) Probe(_ *poa.Context, n int32) (float64, error) {
	return float64(n) * 0.5, nil
}

func (g *geometryImpl) Hint(_ *poa.Context, text string) error {
	g.mu.Lock()
	g.hints = append(g.hints, text)
	g.mu.Unlock()
	return nil
}

func (g *geometryImpl) Classify(_ *poa.Context, v float64) (*typecode.UnionVal, error) {
	switch {
	case v > 0:
		return &typecode.UnionVal{TC: OutcomeTC(), Disc: 0, V: v}, nil
	case v == 0:
		return &typecode.UnionVal{TC: OutcomeTC(), Disc: 1, V: "zero"}, nil
	default:
		return &typecode.UnionVal{TC: OutcomeTC(), Disc: -1, V: int32(-400)}, nil
	}
}

func (g *geometryImpl) Smooth(ctx *poa.Context, data *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	out := dseq.NewFromLayout[float64](ctx.Thread, data.DLayout(), dseq.Float64Codec{})
	for i, v := range data.Local() {
		out.Local()[i] = v / 2
	}
	return out, nil
}

func TestGeneratedSampleEndToEnd(t *testing.T) {
	fab := nexus.NewInproc()
	impl := &geometryImpl{}
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("srv", 2).Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("s%d", th.Rank())))
			adapter := poa.New(th, r, nil)
			adapter.PollInterval = 20e-6
			ior, err := RegisterGeometrySPMD(adapter, "geo-1", impl)
			if err != nil {
				t.Error(err)
				return
			}
			if th.Rank() == 0 {
				iorCh <- ior
			}
			adapter.ImplIsReady()
		})
	}()
	ior := <-iorCh
	defer func() {
		// Always retire the server, even when the client bailed early.
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint("stopper")), nil, nil)
		if b, err := orb.Bind(ior, GeometryIDL()); err == nil {
			b.Shutdown("test done")
		}
		wg.Wait()
	}()

	errCh := make(chan error, 4)
	rts.NewChanGroup("cli", 2).Run(func(th rts.Thread) {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint(fmt.Sprintf("c%d", th.Rank()))), th, nil)
		geo, err := SPMDBindGeometry(orb, ior)
		if err != nil {
			errCh <- err
			return
		}
		seg := &Segment{A: &Point{X: 0, Y: 0}, B: &Point{X: 3, Y: 4}, Label: "hypotenuse"}

		// Typed struct in, double back.
		l, err := geo.Length(seg)
		if err != nil || l != 5 {
			errCh <- fmt.Errorf("Length = %v, %v", l, err)
			return
		}
		// Struct in, struct ret + struct out.
		out, mid, err := geo.Midpointed(seg)
		if err != nil || mid.X != 1.5 || mid.Y != 2 || out.Label != "hypotenuse-mid" || out.B.Y != 4 {
			errCh <- fmt.Errorf("Midpointed = %+v, %+v, %v", out, mid, err)
			return
		}
		// Non-blocking struct result resolves as wire form; convert.
		retF, midF, err := geo.MidpointedNB(seg)
		if err != nil {
			errCh <- err
			return
		}
		if got := SegmentFromStructVal(retF.MustGet()); got.Label != "hypotenuse-mid" {
			errCh <- fmt.Errorf("NB ret = %+v", got)
			return
		}
		if got := PointFromStructVal(midF.MustGet()); got.X != 1.5 {
			errCh <- fmt.Errorf("NB mid = %+v", got)
			return
		}
		// raises: server exception surfaces.
		if _, err := geo.Plan("nowhere"); err == nil || !strings.Contains(err.Error(), "no_path") {
			errCh <- fmt.Errorf("Plan exception = %v", err)
			return
		}
		if pts, err := geo.Plan("here"); err != nil || len(pts) != 2 {
			errCh <- fmt.Errorf("Plan = %v, %v", pts, err)
			return
		}
		// Attribute getter.
		if v, err := geo.GetVersion(); err != nil || v != 7 {
			errCh <- fmt.Errorf("version = %v, %v", v, err)
			return
		}
		// Oneway.
		if err := geo.Hint("faster"); err != nil {
			errCh <- err
			return
		}
		// Union result: each arm round trips.
		if u, err := geo.Classify(2.5); err != nil || u.Disc != 0 || u.V != 2.5 {
			errCh <- fmt.Errorf("classify(2.5) = %+v, %v", u, err)
			return
		}
		if u, err := geo.Classify(0); err != nil || u.Disc != 1 || u.V != "zero" {
			errCh <- fmt.Errorf("classify(0) = %+v, %v", u, err)
			return
		}
		if u, err := geo.Classify(-1); err != nil || u.Disc != -1 || u.V != int32(-400) {
			errCh <- fmt.Errorf("classify(-1) = %+v, %v", u, err)
			return
		}
		// Distributed sequence round trip.
		data := dseq.New[float64](th, 40, dist.BlockTemplate(), dseq.Float64Codec{})
		for i := range data.Local() {
			data.Local()[i] = 10
		}
		sm, err := geo.Smooth(data)
		if err != nil {
			errCh <- err
			return
		}
		for _, v := range sm.Local() {
			if v != 5 {
				errCh <- fmt.Errorf("smooth element = %v", v)
				return
			}
		}
		th.Barrier()
	})
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestStructConversions(t *testing.T) {
	s := &Segment{A: &Point{X: 1, Y: 2}, B: &Point{X: 3, Y: 4}, Label: "l"}
	sv := s.AsStructVal()
	back := SegmentFromStructVal(sv)
	if back.A.X != 1 || back.B.Y != 4 || back.Label != "l" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if SegmentFromStructVal(nil) != nil {
		t.Fatal("nil wire value should give nil struct")
	}
	// Nil nested pointer survives as a zero struct on the wire.
	partial := &Segment{Label: "only-label"}
	sv2 := partial.AsStructVal()
	back2 := SegmentFromStructVal(sv2)
	if back2.Label != "only-label" || back2.A == nil || back2.A.X != 0 {
		t.Fatalf("partial round trip: %+v", back2)
	}
}
