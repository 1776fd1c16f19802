// Code generated by pardis-idl. DO NOT EDIT.

package benchidl

import (
	"fmt"
	"pardis/internal/core"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// N mirrors the IDL constant.
const N = 128

// DvecTC is the typecode of IDL typedef dvec.
func DvecTC() *typecode.TypeCode { return typecode.DSequenceOf(typecode.TCDouble, 0, "", "") }

// FieldTC is the typecode of IDL typedef field.
func FieldTC() *typecode.TypeCode {
	return typecode.DSequenceOf(typecode.TCDouble, 16384, "BLOCK", "BLOCK")
}

// MoverIDL returns the operation table of IDL interface mover.
func MoverIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "mover",
		Ops: []core.Operation{
			{
				Name: "move",
				Params: []core.Param{
					core.NewParam("x", core.In, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
					core.NewParam("y", core.Out, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
				},
			},
		},
	}
}

// Mover is the client proxy for IDL interface mover.
type Mover struct {
	b *core.Binding
}

// BindMover establishes a per-thread binding to the object.
func BindMover(orb *core.ORB, ior core.IOR) (*Mover, error) {
	b, err := orb.Bind(ior, MoverIDL())
	if err != nil {
		return nil, err
	}
	return &Mover{b: b}, nil
}

// SPMDBindMover collectively binds the parallel client as one entity.
func SPMDBindMover(orb *core.ORB, ior core.IOR) (*Mover, error) {
	b, err := orb.SPMDBind(ior, MoverIDL())
	if err != nil {
		return nil, err
	}
	return &Mover{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *Mover) Binding() *core.Binding { return p.b }

// MoveNB is the non-blocking stub for Mover.move: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *Mover) MoveNB(x *dseq.DSeq[float64]) (future.Future[*dseq.DSeq[float64]], error) {
	cell, err := p.b.InvokeNB("move", []any{x, dseq.EmptyByTC(p.b.ORB().Comm(), typecode.TCDouble)})
	if err != nil {
		return future.Future[*dseq.DSeq[float64]]{}, err
	}
	return future.Of[*dseq.DSeq[float64]](cell, 0), nil
}

// Move is the blocking stub for Mover.move.
func (p *Mover) Move(x *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	vals, err := p.b.Invoke("move", []any{x, dseq.EmptyByTC(p.b.ORB().Comm(), typecode.TCDouble)})
	if err != nil {
		return nil, err
	}
	return dseq.AsFloat64(vals[0].(dseq.Distributed)), nil
}

// MoverServant is the typed implementation interface for mover.
type MoverServant interface {
	Move(ctx *poa.Context, x *dseq.DSeq[float64]) (*dseq.DSeq[float64], error)
}

// NewMoverSkeleton adapts a typed servant to the POA's dispatch.
func NewMoverSkeleton(impl MoverServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "move":
			out0, err := impl.Move(ctx, dseq.AsFloat64(in[0].(dseq.Distributed)))
			if err != nil {
				return nil, nil, err
			}
			return nil, []any{out0}, nil
		}
		return nil, nil, fmt.Errorf("mover: no operation %q", op)
	})
}

// RegisterMoverSPMD collectively registers an SPMD mover object.
func RegisterMoverSPMD(p *poa.POA, key string, impl MoverServant) (core.IOR, error) {
	return p.RegisterSPMD(key, MoverIDL(), NewMoverSkeleton(impl))
}

// SinkIDL returns the operation table of IDL interface sink.
func SinkIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "sink",
		Ops: []core.Operation{
			{
				Name: "put",
				Params: []core.Param{
					core.NewParam("x", core.In, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
				},
			},
		},
	}
}

// Sink is the client proxy for IDL interface sink.
type Sink struct {
	b *core.Binding
}

// BindSink establishes a per-thread binding to the object.
func BindSink(orb *core.ORB, ior core.IOR) (*Sink, error) {
	b, err := orb.Bind(ior, SinkIDL())
	if err != nil {
		return nil, err
	}
	return &Sink{b: b}, nil
}

// SPMDBindSink collectively binds the parallel client as one entity.
func SPMDBindSink(orb *core.ORB, ior core.IOR) (*Sink, error) {
	b, err := orb.SPMDBind(ior, SinkIDL())
	if err != nil {
		return nil, err
	}
	return &Sink{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *Sink) Binding() *core.Binding { return p.b }

// PutNB is the non-blocking stub for Sink.put: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *Sink) PutNB(x *dseq.DSeq[float64]) (future.Done, error) {
	cell, err := p.b.InvokeNB("put", []any{x})
	if err != nil {
		return future.Done{}, err
	}
	return future.DoneOf(cell), nil
}

// Put is the blocking stub for Sink.put.
func (p *Sink) Put(x *dseq.DSeq[float64]) error {
	_, err := p.b.Invoke("put", []any{x})
	return err
}

// SinkServant is the typed implementation interface for sink.
type SinkServant interface {
	Put(ctx *poa.Context, x *dseq.DSeq[float64]) error
}

// NewSinkSkeleton adapts a typed servant to the POA's dispatch.
func NewSinkSkeleton(impl SinkServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "put":
			err := impl.Put(ctx, dseq.AsFloat64(in[0].(dseq.Distributed)))
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("sink: no operation %q", op)
	})
}

// RegisterSinkSPMD collectively registers an SPMD sink object.
func RegisterSinkSPMD(p *poa.POA, key string, impl SinkServant) (core.IOR, error) {
	return p.RegisterSPMD(key, SinkIDL(), NewSinkSkeleton(impl))
}

// ServeReplicaIDL returns the operation table of IDL interface serve_replica.
func ServeReplicaIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "serve_replica",
		Ops: []core.Operation{
			{
				Name:       "work",
				Idempotent: true,
				Result:     typecode.TCLong,
				Params: []core.Param{
					core.NewParam("x", core.In, typecode.TCLong),
				},
			},
		},
	}
}

// ServeReplica is the client proxy for IDL interface serve_replica.
type ServeReplica struct {
	b *core.Binding
}

// BindServeReplica establishes a per-thread binding to the object.
func BindServeReplica(orb *core.ORB, ior core.IOR) (*ServeReplica, error) {
	b, err := orb.Bind(ior, ServeReplicaIDL())
	if err != nil {
		return nil, err
	}
	return &ServeReplica{b: b}, nil
}

// SPMDBindServeReplica collectively binds the parallel client as one entity.
func SPMDBindServeReplica(orb *core.ORB, ior core.IOR) (*ServeReplica, error) {
	b, err := orb.SPMDBind(ior, ServeReplicaIDL())
	if err != nil {
		return nil, err
	}
	return &ServeReplica{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *ServeReplica) Binding() *core.Binding { return p.b }

// WorkNB is the non-blocking stub for ServeReplica.work: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *ServeReplica) WorkNB(x int32) (future.Future[int32], error) {
	cell, err := p.b.InvokeNB("work", []any{x})
	if err != nil {
		return future.Future[int32]{}, err
	}
	return future.Of[int32](cell, 0), nil
}

// Work is the blocking stub for ServeReplica.work.
func (p *ServeReplica) Work(x int32) (int32, error) {
	vals, err := p.b.Invoke("work", []any{x})
	if err != nil {
		return 0, err
	}
	return vals[0].(int32), nil
}

// ServeReplicaServant is the typed implementation interface for serve_replica.
type ServeReplicaServant interface {
	Work(ctx *poa.Context, x int32) (int32, error)
}

// NewServeReplicaSkeleton adapts a typed servant to the POA's dispatch.
func NewServeReplicaSkeleton(impl ServeReplicaServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "work":
			ret, err := impl.Work(ctx, in[0].(int32))
			if err != nil {
				return nil, nil, err
			}
			return ret, nil, nil
		}
		return nil, nil, fmt.Errorf("serve_replica: no operation %q", op)
	})
}

// RegisterServeReplicaSPMD collectively registers an SPMD serve_replica object.
func RegisterServeReplicaSPMD(p *poa.POA, key string, impl ServeReplicaServant) (core.IOR, error) {
	return p.RegisterSPMD(key, ServeReplicaIDL(), NewServeReplicaSkeleton(impl))
}

// RegisterServeReplicaSingle registers a single serve_replica object owned by the calling thread.
func RegisterServeReplicaSingle(p *poa.POA, key string, impl ServeReplicaServant) (core.IOR, error) {
	return p.RegisterSingle(key, ServeReplicaIDL(), NewServeReplicaSkeleton(impl))
}

// FaninIDL returns the operation table of IDL interface fanin.
func FaninIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "fanin",
		Ops: []core.Operation{
			{
				Name:   "ping",
				Result: typecode.TCLong,
				Params: []core.Param{
					core.NewParam("x", core.In, typecode.TCLong),
				},
			},
		},
	}
}

// Fanin is the client proxy for IDL interface fanin.
type Fanin struct {
	b *core.Binding
}

// BindFanin establishes a per-thread binding to the object.
func BindFanin(orb *core.ORB, ior core.IOR) (*Fanin, error) {
	b, err := orb.Bind(ior, FaninIDL())
	if err != nil {
		return nil, err
	}
	return &Fanin{b: b}, nil
}

// SPMDBindFanin collectively binds the parallel client as one entity.
func SPMDBindFanin(orb *core.ORB, ior core.IOR) (*Fanin, error) {
	b, err := orb.SPMDBind(ior, FaninIDL())
	if err != nil {
		return nil, err
	}
	return &Fanin{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *Fanin) Binding() *core.Binding { return p.b }

// PingNB is the non-blocking stub for Fanin.ping: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *Fanin) PingNB(x int32) (future.Future[int32], error) {
	cell, err := p.b.InvokeNB("ping", []any{x})
	if err != nil {
		return future.Future[int32]{}, err
	}
	return future.Of[int32](cell, 0), nil
}

// Ping is the blocking stub for Fanin.ping.
func (p *Fanin) Ping(x int32) (int32, error) {
	vals, err := p.b.Invoke("ping", []any{x})
	if err != nil {
		return 0, err
	}
	return vals[0].(int32), nil
}

// FaninServant is the typed implementation interface for fanin.
type FaninServant interface {
	Ping(ctx *poa.Context, x int32) (int32, error)
}

// NewFaninSkeleton adapts a typed servant to the POA's dispatch.
func NewFaninSkeleton(impl FaninServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "ping":
			ret, err := impl.Ping(ctx, in[0].(int32))
			if err != nil {
				return nil, nil, err
			}
			return ret, nil, nil
		}
		return nil, nil, fmt.Errorf("fanin: no operation %q", op)
	})
}

// RegisterFaninSPMD collectively registers an SPMD fanin object.
func RegisterFaninSPMD(p *poa.POA, key string, impl FaninServant) (core.IOR, error) {
	return p.RegisterSPMD(key, FaninIDL(), NewFaninSkeleton(impl))
}

// RegisterFaninSingle registers a single fanin object owned by the calling thread.
func RegisterFaninSingle(p *poa.POA, key string, impl FaninServant) (core.IOR, error) {
	return p.RegisterSingle(key, FaninIDL(), NewFaninSkeleton(impl))
}

// ObsSvcIDL returns the operation table of IDL interface obs_svc.
func ObsSvcIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "obs_svc",
		Ops: []core.Operation{
			{
				Name:       "work",
				Idempotent: true,
				Result:     typecode.TCLong,
				Params: []core.Param{
					core.NewParam("kind", core.In, typecode.TCLong),
				},
			},
		},
	}
}

// ObsSvc is the client proxy for IDL interface obs_svc.
type ObsSvc struct {
	b *core.Binding
}

// BindObsSvc establishes a per-thread binding to the object.
func BindObsSvc(orb *core.ORB, ior core.IOR) (*ObsSvc, error) {
	b, err := orb.Bind(ior, ObsSvcIDL())
	if err != nil {
		return nil, err
	}
	return &ObsSvc{b: b}, nil
}

// SPMDBindObsSvc collectively binds the parallel client as one entity.
func SPMDBindObsSvc(orb *core.ORB, ior core.IOR) (*ObsSvc, error) {
	b, err := orb.SPMDBind(ior, ObsSvcIDL())
	if err != nil {
		return nil, err
	}
	return &ObsSvc{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *ObsSvc) Binding() *core.Binding { return p.b }

// WorkNB is the non-blocking stub for ObsSvc.work: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *ObsSvc) WorkNB(kind int32) (future.Future[int32], error) {
	cell, err := p.b.InvokeNB("work", []any{kind})
	if err != nil {
		return future.Future[int32]{}, err
	}
	return future.Of[int32](cell, 0), nil
}

// Work is the blocking stub for ObsSvc.work.
func (p *ObsSvc) Work(kind int32) (int32, error) {
	vals, err := p.b.Invoke("work", []any{kind})
	if err != nil {
		return 0, err
	}
	return vals[0].(int32), nil
}

// ObsSvcServant is the typed implementation interface for obs_svc.
type ObsSvcServant interface {
	Work(ctx *poa.Context, kind int32) (int32, error)
}

// NewObsSvcSkeleton adapts a typed servant to the POA's dispatch.
func NewObsSvcSkeleton(impl ObsSvcServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "work":
			ret, err := impl.Work(ctx, in[0].(int32))
			if err != nil {
				return nil, nil, err
			}
			return ret, nil, nil
		}
		return nil, nil, fmt.Errorf("obs_svc: no operation %q", op)
	})
}

// RegisterObsSvcSPMD collectively registers an SPMD obs_svc object.
func RegisterObsSvcSPMD(p *poa.POA, key string, impl ObsSvcServant) (core.IOR, error) {
	return p.RegisterSPMD(key, ObsSvcIDL(), NewObsSvcSkeleton(impl))
}

// RegisterObsSvcSingle registers a single obs_svc object owned by the calling thread.
func RegisterObsSvcSingle(p *poa.POA, key string, impl ObsSvcServant) (core.IOR, error) {
	return p.RegisterSingle(key, ObsSvcIDL(), NewObsSvcSkeleton(impl))
}

// VisualizerIDL returns the operation table of IDL interface visualizer.
func VisualizerIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "visualizer",
		Ops: []core.Operation{
			{
				Name:   "show",
				Oneway: true,
				Params: []core.Param{
					core.NewParam("myfield", core.In, typecode.DSequenceOf(typecode.TCDouble, 16384, "BLOCK", "BLOCK")),
				},
			},
		},
	}
}

// Visualizer is the client proxy for IDL interface visualizer.
type Visualizer struct {
	b *core.Binding
}

// BindVisualizer establishes a per-thread binding to the object.
func BindVisualizer(orb *core.ORB, ior core.IOR) (*Visualizer, error) {
	b, err := orb.Bind(ior, VisualizerIDL())
	if err != nil {
		return nil, err
	}
	return &Visualizer{b: b}, nil
}

// SPMDBindVisualizer collectively binds the parallel client as one entity.
func SPMDBindVisualizer(orb *core.ORB, ior core.IOR) (*Visualizer, error) {
	b, err := orb.SPMDBind(ior, VisualizerIDL())
	if err != nil {
		return nil, err
	}
	return &Visualizer{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *Visualizer) Binding() *core.Binding { return p.b }

// ShowNB is the non-blocking stub for Visualizer.show: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *Visualizer) ShowNB(myfield *dseq.DSeq[float64]) error {
	_, err := p.b.InvokeNB("show", []any{myfield})
	if err != nil {
		return err
	}
	return nil
}

// Show is the blocking stub for Visualizer.show.
func (p *Visualizer) Show(myfield *dseq.DSeq[float64]) error {
	_, err := p.b.Invoke("show", []any{myfield})
	return err
}

// VisualizerServant is the typed implementation interface for visualizer.
type VisualizerServant interface {
	Show(ctx *poa.Context, myfield *dseq.DSeq[float64]) error
}

// NewVisualizerSkeleton adapts a typed servant to the POA's dispatch.
func NewVisualizerSkeleton(impl VisualizerServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "show":
			err := impl.Show(ctx, dseq.AsFloat64(in[0].(dseq.Distributed)))
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("visualizer: no operation %q", op)
	})
}

// RegisterVisualizerSPMD collectively registers an SPMD visualizer object.
func RegisterVisualizerSPMD(p *poa.POA, key string, impl VisualizerServant) (core.IOR, error) {
	return p.RegisterSPMD(key, VisualizerIDL(), NewVisualizerSkeleton(impl))
}

// FieldOperationsIDL returns the operation table of IDL interface field_operations.
func FieldOperationsIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "field_operations",
		Ops: []core.Operation{
			{
				Name:   "gradient",
				Oneway: true,
				Params: []core.Param{
					core.NewParam("myfield", core.In, typecode.DSequenceOf(typecode.TCDouble, 16384, "BLOCK", "BLOCK")),
				},
			},
		},
	}
}

// FieldOperations is the client proxy for IDL interface field_operations.
type FieldOperations struct {
	b *core.Binding
}

// BindFieldOperations establishes a per-thread binding to the object.
func BindFieldOperations(orb *core.ORB, ior core.IOR) (*FieldOperations, error) {
	b, err := orb.Bind(ior, FieldOperationsIDL())
	if err != nil {
		return nil, err
	}
	return &FieldOperations{b: b}, nil
}

// SPMDBindFieldOperations collectively binds the parallel client as one entity.
func SPMDBindFieldOperations(orb *core.ORB, ior core.IOR) (*FieldOperations, error) {
	b, err := orb.SPMDBind(ior, FieldOperationsIDL())
	if err != nil {
		return nil, err
	}
	return &FieldOperations{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *FieldOperations) Binding() *core.Binding { return p.b }

// GradientNB is the non-blocking stub for FieldOperations.gradient: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *FieldOperations) GradientNB(myfield *dseq.DSeq[float64]) error {
	_, err := p.b.InvokeNB("gradient", []any{myfield})
	if err != nil {
		return err
	}
	return nil
}

// Gradient is the blocking stub for FieldOperations.gradient.
func (p *FieldOperations) Gradient(myfield *dseq.DSeq[float64]) error {
	_, err := p.b.Invoke("gradient", []any{myfield})
	return err
}

// FieldOperationsServant is the typed implementation interface for field_operations.
type FieldOperationsServant interface {
	Gradient(ctx *poa.Context, myfield *dseq.DSeq[float64]) error
}

// NewFieldOperationsSkeleton adapts a typed servant to the POA's dispatch.
func NewFieldOperationsSkeleton(impl FieldOperationsServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "gradient":
			err := impl.Gradient(ctx, dseq.AsFloat64(in[0].(dseq.Distributed)))
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("field_operations: no operation %q", op)
	})
}

// RegisterFieldOperationsSPMD collectively registers an SPMD field_operations object.
func RegisterFieldOperationsSPMD(p *poa.POA, key string, impl FieldOperationsServant) (core.IOR, error) {
	return p.RegisterSPMD(key, FieldOperationsIDL(), NewFieldOperationsSkeleton(impl))
}
