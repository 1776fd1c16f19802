// Package pipeline is the paper's §4.3 metaapplication, written once
// against what pardis-idl generates from examples/pipeline/pipeline.idl: a
// POOMA diffusion client pipelines its field every few time-steps to a PSTL
// gradient server (package pstlgen), and both ship what they compute to
// visualizers (package vizgen), all through non-blocking invocations.
//
// Each component charges its cost model through Thread.Compute, a no-op on
// the wall clock, and runs its kernels unless its thread is an
// *rts.SimThread. Deploy starts the metaapplication's programs through a
// launcher: Figure 5 (internal/bench) on virtual time, examples/pipeline on
// the wall clock in one process.
package pipeline

import (
	"errors"
	"fmt"

	"pardis/examples/pipeline/pstlgen"
	"pardis/examples/pipeline/vizgen"
	"pardis/internal/apps"
	"pardis/internal/bench/benchidl"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/pooma"
	"pardis/internal/pstl"
	"pardis/internal/rts"
)

// The paper's run: a grid x grid field stepped steps times by a 9-point
// stencil (coefficient alpha), its gradient requested every every-th step.
const (
	grid  = 128
	steps = 100
	every = 5
	alpha = 0.01
)

// Params selects which parts of the metaapplication run, and how; the zero
// value is the whole pipeline, Figure 5's overall curve.
type Params struct {
	SkipGradient bool // no gradient requests: the diffusion component alone
	Oneway       bool // show and gradient are declared oneway: nobody waits for a reply
	Driver       bool // the gradient component alone: the client only blocks on each gradient request
}

// initial is the field before the first step: one hot cell in the middle.
func initial(x, y int) float64 {
	if x == grid/2 && y == grid/2 {
		return 1000
	}
	return 0
}

// wholeRows refuses, on the wall clock, a thread group that cannot hold whole rows.
func wholeRows(th rts.Thread) error {
	if rts.Virtual(th) || grid%th.Size() == 0 {
		return nil
	}
	return fmt.Errorf("pipeline: %d threads cannot each hold whole rows of the %dx%d grid", th.Size(), grid, grid)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / (grid * grid)
}

// tables returns the operation tables the components register: for the
// oneway ablation benchidl's copies, served by the same skeletons.
func (p Params) tables() (viz, grad func() *core.InterfaceDef) {
	if p.Oneway {
		return benchidl.VisualizerIDL, benchidl.FieldOperationsIDL
	}
	return vizgen.VisualizerIDL, vizgen.FieldOperationsIDL
}

// Visualizer is a one-thread visualizer's servant: it charges a fixed cost
// per frame and keeps the frame count and the last frame's mean. Read them
// once its thread has returned.
type Visualizer struct {
	Frames   int
	LastMean float64
}

// Show implements vizgen.VisualizerServant.
func (v *Visualizer) Show(ctx *poa.Context, myfield *dseq.DSeq[float64]) error {
	ctx.Thread.Compute(apps.VizWork)
	v.Frames++
	v.LastMean = mean(myfield.Local())
	return nil
}

// visualizer is the body of a one-thread visualizer program serving v.
func visualizer(key string, p Params, v *Visualizer) apps.Body {
	return apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
		vizIDL, _ := p.tables()
		return adapter.RegisterSPMD(key, vizIDL(), vizgen.NewVisualizerSkeleton(v))
	})
}

// gradient is one thread's gradient servant: it pipelines the field's
// gradient to its own visualizer, the server-as-client role of §4.3.
type gradient struct {
	p      Params
	orb    *core.ORB
	vizRef apps.Ref
	viz    proxy
	last   func() error // waits for the last frame shown
}

// visualizer binds the gradient's visualizer on first use; every thread
// of the server calls it together.
func (g *gradient) visualizer(th rts.Thread) error {
	if g.viz.binding != nil {
		return nil
	}
	ref, err := g.vizRef(th)
	if err != nil {
		return err
	}
	viz, err := bindVisualizer(g.orb, ref[0], g.p.Oneway)
	if err == nil {
		g.viz = viz
	}
	return err
}

// Gradient implements pstlgen.FieldOperationsServant.
func (g *gradient) Gradient(ctx *poa.Context, myfield *pstl.DistVector) error {
	th := ctx.Thread
	if err := errors.Join(wholeRows(th), g.visualizer(th)); err != nil {
		return err
	}
	th.Compute(apps.PerThread(apps.GradientWork(grid*grid), th.Size()))
	out := pstl.VectorFromDSeq(dseq.NewFromLayout[float64](th, myfield.AsDSeq().DLayout(), dseq.Float64Codec{}))
	if !rts.Virtual(th) {
		pstl.Gradient2D(myfield, out, grid, grid)
	}
	wait, err := g.viz.nb(out.AsDSeq())
	if err == nil {
		g.last = wait
	}
	return err
}

// gradientServer is the body of the gradient server. It serves until the
// client shuts it down; then each thread waits for its last frame, and
// rank 0 retires the server's visualizer, the program behind vizRef.
func gradientServer(p Params, vizRef apps.Ref) apps.Body {
	return func(th rts.Thread, adapter *poa.POA, orb *core.ORB, publish func(...core.IOR)) error {
		g := &gradient{p: p, orb: orb, vizRef: vizRef, last: func() error { return nil }}
		_, gradIDL := p.tables()
		ior, err := adapter.RegisterSPMD("gradient-1", gradIDL(), pstlgen.NewFieldOperationsSkeleton(g))
		if err != nil {
			return err
		}
		publish(ior)
		adapter.ImplIsReady()
		if err := errors.Join(g.visualizer(th), g.last()); err != nil || th.Rank() != 0 {
			return err
		}
		return g.viz.binding().Shutdown("done")
	}
}

// diffuse runs one thread of the diffusion client of the visualizer and
// the gradient server behind vizRef and gradRef, and rank 0 shuts both down
// at the end, also after an error. span, marked after a barrier at each
// end, measures the steps and every reply to them. On the wall clock the
// client's and the server's thread counts must divide the grid's rows
// (wholeRows); others get an error.
func diffuse(th rts.Thread, orb *core.ORB, p Params, vizRef, gradRef apps.Ref, span *apps.Span) (err error) {
	// Both references before either bind: a bind is collective over the
	// client's threads, so when it starts moves the figures.
	vizIOR, verr := vizRef(th)
	gradIOR, err := gradRef(th)
	if err = errors.Join(verr, err); err != nil {
		return err
	}
	viz, verr := bindVisualizer(orb, vizIOR[0], p.Oneway)
	grad, err := bindGradient(orb, gradIOR[0], p.Oneway)
	if err = errors.Join(verr, err); err != nil {
		return err
	}
	if th.Rank() == 0 {
		defer func() { err = errors.Join(err, grad.binding().Shutdown("done"), viz.binding().Shutdown("done")) }()
	}
	if err := wholeRows(th); err != nil {
		return err
	}
	field := dseq.New[float64](th, grid*grid, dist.BlockTemplate(), dseq.Float64Codec{})
	step := func() {}
	if !rts.Virtual(th) {
		f := pooma.FieldFromDSeq(field)
		next := pooma.FieldFromDSeq(dseq.NewFromLayout[float64](th, field.DLayout(), dseq.Float64Codec{}))
		f.Fill(initial)
		step = func() {
			f.Step(next, alpha)
			copy(f.Local(), next.Local())
		}
	}

	th.Barrier()
	span.Start(th)
	var pending []func() error
	issue := func(stub proxy) error {
		wait, err := stub.nb(field)
		pending = append(pending, wait)
		return err
	}
	for i := 1; i <= steps; i++ {
		if !p.Driver {
			th.Compute(apps.PerThread(apps.DiffusionStepWork(grid*grid), th.Size()))
			step()
			if err := issue(viz); err != nil {
				return err
			}
		}
		var err error
		switch {
		case p.SkipGradient || i%every != 0:
		case p.Driver:
			err = grad.blocking(field)
		default:
			err = issue(grad)
		}
		if err != nil {
			return err
		}
	}
	// Every reply, also after a failed one: rank 0 shuts the visualizer
	// down only once its last show is served, sibling threads' parts too.
	for _, wait := range pending {
		if werr := wait(); err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	th.Barrier()
	span.Stop(th)
	return nil
}

// Serial runs the kernels on one thread, the reference a run is checked
// against, and returns what the whole pipeline shows each visualizer.
func Serial() (vizDiff, vizGrad Visualizer) {
	th := rts.NewChanGroup("serial", 1).Thread(0)
	f, next := pooma.NewField(th, grid, grid), pooma.NewField(th, grid, grid)
	grad := pstl.NewDistVector(th, grid*grid)
	f.Fill(initial)
	for i := 1; i <= steps; i++ {
		f.Step(next, alpha)
		f, next = next, f
		if i%every == 0 {
			pstl.Gradient2D(pstl.VectorFromDSeq(f.AsDSeq()), grad, grid, grid)
		}
	}
	return Visualizer{steps, mean(f.Local())}, Visualizer{steps / every, mean(grad.Local())}
}

// Topology places the parallel components and the gradient's one-thread
// visualizer; the diffusion's runs beside its client.
type Topology struct {
	Gradient, Diffusion apps.Program
	VizGrad             string
}

// The visualizers' program names, which are also their object keys.
const VizDiffProgram, VizGradProgram = "viz-diff", "viz-grad"

// Deploy runs the metaapplication through l: both visualizers, the
// gradient server and the client p selects, whose steps span measures. It
// returns the visualizers once every program has returned.
func Deploy(l apps.Launcher, t Topology, p Params, span *apps.Span) (vizDiff, vizGrad *Visualizer, err error) {
	vizDiff, vizGrad = &Visualizer{}, &Visualizer{}
	diffView := l.Start(VizDiffProgram, apps.Program{Host: t.Diffusion.Host, Threads: 1}, visualizer(VizDiffProgram, p, vizDiff))
	gradView := l.Start(VizGradProgram, apps.Program{Host: t.VizGrad, Threads: 1}, visualizer(VizGradProgram, p, vizGrad))
	grad := l.Start("grad", t.Gradient, gradientServer(p, gradView))
	name, at := "diffusion", t.Diffusion
	if p.Driver { // one thread
		name, at = "driver", apps.Program{Host: at.Host, Threads: 1}
	}
	l.Start(name, at, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
		return diffuse(th, orb, p, diffView, grad, span)
	})
	return vizDiff, vizGrad, l.Wait()
}

// A proxy is one bound object, called through its generated stubs: those
// of vizgen, or for the oneway ablation benchidl's.
type proxy struct {
	binding  func() *core.Binding
	twoWay   func(myfield *dseq.DSeq[float64]) (future.Done, error)
	oneway   func(myfield *dseq.DSeq[float64]) error
	blocking func(myfield *dseq.DSeq[float64]) error
}

// nb issues one non-blocking call and returns what to wait on; a oneway
// call sends no reply, so its wait returns at once.
func (x proxy) nb(myfield *dseq.DSeq[float64]) (wait func() error, err error) {
	if x.oneway != nil {
		return func() error { return nil }, x.oneway(myfield)
	}
	done, err := x.twoWay(myfield)
	return done.Wait, err
}

// bindVisualizer collectively binds the visualizer at ref.
func bindVisualizer(orb *core.ORB, ref core.IOR, oneway bool) (proxy, error) {
	if oneway {
		v, err := benchidl.SPMDBindVisualizer(orb, ref)
		return proxy{v.Binding, nil, v.ShowNB, v.Show}, err
	}
	v, err := vizgen.SPMDBindVisualizer(orb, ref)
	return proxy{v.Binding, v.ShowNB, nil, v.Show}, err
}

// bindGradient collectively binds the gradient server at ref.
func bindGradient(orb *core.ORB, ref core.IOR, oneway bool) (proxy, error) {
	if oneway {
		g, err := benchidl.SPMDBindFieldOperations(orb, ref)
		return proxy{g.Binding, nil, g.GradientNB, g.Gradient}, err
	}
	g, err := vizgen.SPMDBindFieldOperations(orb, ref)
	return proxy{g.Binding, g.GradientNB, nil, g.Gradient}, err
}
