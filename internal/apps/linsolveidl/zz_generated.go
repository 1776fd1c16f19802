// Code generated by pardis-idl. DO NOT EDIT.

package linsolveidl

import (
	"fmt"
	"pardis/internal/core"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// RowTC is the typecode of IDL typedef row.
func RowTC() *typecode.TypeCode { return typecode.SequenceOf(typecode.TCDouble, 0) }

// MatrixTC is the typecode of IDL typedef matrix.
func MatrixTC() *typecode.TypeCode {
	return typecode.DSequenceOf(typecode.SequenceOf(typecode.TCDouble, 0), 0, "", "")
}

// VectorTC is the typecode of IDL typedef vector.
func VectorTC() *typecode.TypeCode { return typecode.DSequenceOf(typecode.TCDouble, 0, "", "") }

// DirectIDL returns the operation table of IDL interface direct.
func DirectIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "direct",
		Ops: []core.Operation{
			{
				Name: "solve",
				Params: []core.Param{
					core.NewParam("A", core.In, typecode.DSequenceOf(typecode.SequenceOf(typecode.TCDouble, 0), 0, "", "")),
					core.NewParam("B", core.In, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
					core.NewParam("X", core.Out, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
				},
			},
		},
	}
}

// Direct is the client proxy for IDL interface direct.
type Direct struct {
	b *core.Binding
}

// BindDirect establishes a per-thread binding to the object.
func BindDirect(orb *core.ORB, ior core.IOR) (*Direct, error) {
	b, err := orb.Bind(ior, DirectIDL())
	if err != nil {
		return nil, err
	}
	return &Direct{b: b}, nil
}

// SPMDBindDirect collectively binds the parallel client as one entity.
func SPMDBindDirect(orb *core.ORB, ior core.IOR) (*Direct, error) {
	b, err := orb.SPMDBind(ior, DirectIDL())
	if err != nil {
		return nil, err
	}
	return &Direct{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *Direct) Binding() *core.Binding { return p.b }

// SolveNB is the non-blocking stub for Direct.solve: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *Direct) SolveNB(A *dseq.DSeq[any], B *dseq.DSeq[float64]) (future.Future[*dseq.DSeq[float64]], error) {
	cell, err := p.b.InvokeNB("solve", []any{A, B, dseq.EmptyByTC(p.b.ORB().Comm(), typecode.TCDouble)})
	if err != nil {
		return future.Future[*dseq.DSeq[float64]]{}, err
	}
	return future.Of[*dseq.DSeq[float64]](cell, 0), nil
}

// Solve is the blocking stub for Direct.solve.
func (p *Direct) Solve(A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	vals, err := p.b.Invoke("solve", []any{A, B, dseq.EmptyByTC(p.b.ORB().Comm(), typecode.TCDouble)})
	if err != nil {
		return nil, err
	}
	return dseq.AsFloat64(vals[0].(dseq.Distributed)), nil
}

// DirectServant is the typed implementation interface for direct.
type DirectServant interface {
	Solve(ctx *poa.Context, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error)
}

// NewDirectSkeleton adapts a typed servant to the POA's dispatch.
func NewDirectSkeleton(impl DirectServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "solve":
			out0, err := impl.Solve(ctx, dseq.AsAny(in[0].(dseq.Distributed)), dseq.AsFloat64(in[1].(dseq.Distributed)))
			if err != nil {
				return nil, nil, err
			}
			return nil, []any{out0}, nil
		}
		return nil, nil, fmt.Errorf("direct: no operation %q", op)
	})
}

// RegisterDirectSPMD collectively registers an SPMD direct object.
func RegisterDirectSPMD(p *poa.POA, key string, impl DirectServant) (core.IOR, error) {
	return p.RegisterSPMD(key, DirectIDL(), NewDirectSkeleton(impl))
}

// IterativeIDL returns the operation table of IDL interface iterative.
func IterativeIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "iterative",
		Ops: []core.Operation{
			{
				Name: "solve",
				Params: []core.Param{
					core.NewParam("tol", core.In, typecode.TCDouble),
					core.NewParam("A", core.In, typecode.DSequenceOf(typecode.SequenceOf(typecode.TCDouble, 0), 0, "", "")),
					core.NewParam("B", core.In, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
					core.NewParam("X", core.Out, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
				},
			},
		},
	}
}

// Iterative is the client proxy for IDL interface iterative.
type Iterative struct {
	b *core.Binding
}

// BindIterative establishes a per-thread binding to the object.
func BindIterative(orb *core.ORB, ior core.IOR) (*Iterative, error) {
	b, err := orb.Bind(ior, IterativeIDL())
	if err != nil {
		return nil, err
	}
	return &Iterative{b: b}, nil
}

// SPMDBindIterative collectively binds the parallel client as one entity.
func SPMDBindIterative(orb *core.ORB, ior core.IOR) (*Iterative, error) {
	b, err := orb.SPMDBind(ior, IterativeIDL())
	if err != nil {
		return nil, err
	}
	return &Iterative{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *Iterative) Binding() *core.Binding { return p.b }

// SolveNB is the non-blocking stub for Iterative.solve: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *Iterative) SolveNB(tol float64, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (future.Future[*dseq.DSeq[float64]], error) {
	cell, err := p.b.InvokeNB("solve", []any{tol, A, B, dseq.EmptyByTC(p.b.ORB().Comm(), typecode.TCDouble)})
	if err != nil {
		return future.Future[*dseq.DSeq[float64]]{}, err
	}
	return future.Of[*dseq.DSeq[float64]](cell, 0), nil
}

// Solve is the blocking stub for Iterative.solve.
func (p *Iterative) Solve(tol float64, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	vals, err := p.b.Invoke("solve", []any{tol, A, B, dseq.EmptyByTC(p.b.ORB().Comm(), typecode.TCDouble)})
	if err != nil {
		return nil, err
	}
	return dseq.AsFloat64(vals[0].(dseq.Distributed)), nil
}

// IterativeServant is the typed implementation interface for iterative.
type IterativeServant interface {
	Solve(ctx *poa.Context, tol float64, A *dseq.DSeq[any], B *dseq.DSeq[float64]) (*dseq.DSeq[float64], error)
}

// NewIterativeSkeleton adapts a typed servant to the POA's dispatch.
func NewIterativeSkeleton(impl IterativeServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "solve":
			out0, err := impl.Solve(ctx, in[0].(float64), dseq.AsAny(in[1].(dseq.Distributed)), dseq.AsFloat64(in[2].(dseq.Distributed)))
			if err != nil {
				return nil, nil, err
			}
			return nil, []any{out0}, nil
		}
		return nil, nil, fmt.Errorf("iterative: no operation %q", op)
	})
}

// RegisterIterativeSPMD collectively registers an SPMD iterative object.
func RegisterIterativeSPMD(p *poa.POA, key string, impl IterativeServant) (core.IOR, error) {
	return p.RegisterSPMD(key, IterativeIDL(), NewIterativeSkeleton(impl))
}
