// Code generated by pardis-idl. DO NOT EDIT.

package dnadbidl

import (
	"fmt"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// Status labels (IDL enum status).
const (
	StatusFOUND    uint32 = 0
	StatusNOTFOUND uint32 = 1
)

// StatusTC is the typecode of IDL enum status.
func StatusTC() *typecode.TypeCode { return typecode.EnumOf("status", "FOUND", "NOT_FOUND") }

// DnaListTC is the typecode of IDL typedef dna_list.
func DnaListTC() *typecode.TypeCode { return typecode.SequenceOf(typecode.TCString, 0) }

// ListServerIDL returns the operation table of IDL interface list_server.
func ListServerIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "list_server",
		Ops: []core.Operation{
			{
				Name: "match",
				Params: []core.Param{
					core.NewParam("s", core.In, typecode.TCString),
					core.NewParam("l", core.Out, typecode.SequenceOf(typecode.TCString, 0)),
				},
			},
		},
	}
}

// ListServer is the client proxy for IDL interface list_server.
type ListServer struct {
	b *core.Binding
}

// BindListServer establishes a per-thread binding to the object.
func BindListServer(orb *core.ORB, ior core.IOR) (*ListServer, error) {
	b, err := orb.Bind(ior, ListServerIDL())
	if err != nil {
		return nil, err
	}
	return &ListServer{b: b}, nil
}

// SPMDBindListServer collectively binds the parallel client as one entity.
func SPMDBindListServer(orb *core.ORB, ior core.IOR) (*ListServer, error) {
	b, err := orb.SPMDBind(ior, ListServerIDL())
	if err != nil {
		return nil, err
	}
	return &ListServer{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *ListServer) Binding() *core.Binding { return p.b }

// MatchNB is the non-blocking stub for ListServer.match: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *ListServer) MatchNB(s string) (future.Future[[]string], error) {
	cell, err := p.b.InvokeNB("match", []any{s, nil})
	if err != nil {
		return future.Future[[]string]{}, err
	}
	return future.Of[[]string](cell, 0), nil
}

// Match is the blocking stub for ListServer.match.
func (p *ListServer) Match(s string) ([]string, error) {
	vals, err := p.b.Invoke("match", []any{s, nil})
	if err != nil {
		return nil, err
	}
	return vals[0].([]string), nil
}

// ListServerServant is the typed implementation interface for list_server.
type ListServerServant interface {
	Match(ctx *poa.Context, s string) ([]string, error)
}

// NewListServerSkeleton adapts a typed servant to the POA's dispatch.
func NewListServerSkeleton(impl ListServerServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "match":
			out0, err := impl.Match(ctx, in[0].(string))
			if err != nil {
				return nil, nil, err
			}
			return nil, []any{out0}, nil
		}
		return nil, nil, fmt.Errorf("list_server: no operation %q", op)
	})
}

// RegisterListServerSPMD collectively registers an SPMD list_server object.
func RegisterListServerSPMD(p *poa.POA, key string, impl ListServerServant) (core.IOR, error) {
	return p.RegisterSPMD(key, ListServerIDL(), NewListServerSkeleton(impl))
}

// RegisterListServerSingle registers a single list_server object owned by the calling thread.
func RegisterListServerSingle(p *poa.POA, key string, impl ListServerServant) (core.IOR, error) {
	return p.RegisterSingle(key, ListServerIDL(), NewListServerSkeleton(impl))
}

// DnaDbIDL returns the operation table of IDL interface dna_db.
func DnaDbIDL() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "dna_db",
		Ops: []core.Operation{
			{
				Name:   "search",
				Result: typecode.EnumOf("status", "FOUND", "NOT_FOUND"),
				Params: []core.Param{
					core.NewParam("s", core.In, typecode.TCString),
				},
			},
		},
	}
}

// DnaDb is the client proxy for IDL interface dna_db.
type DnaDb struct {
	b *core.Binding
}

// BindDnaDb establishes a per-thread binding to the object.
func BindDnaDb(orb *core.ORB, ior core.IOR) (*DnaDb, error) {
	b, err := orb.Bind(ior, DnaDbIDL())
	if err != nil {
		return nil, err
	}
	return &DnaDb{b: b}, nil
}

// SPMDBindDnaDb collectively binds the parallel client as one entity.
func SPMDBindDnaDb(orb *core.ORB, ior core.IOR) (*DnaDb, error) {
	b, err := orb.SPMDBind(ior, DnaDbIDL())
	if err != nil {
		return nil, err
	}
	return &DnaDb{b: b}, nil
}

// Binding exposes the proxy's underlying binding (for SetOutDist,
// Locate, Shutdown).
func (p *DnaDb) Binding() *core.Binding { return p.b }

// SearchNB is the non-blocking stub for DnaDb.search: it returns immediately
// after the request is sent, with futures that resolve together when
// the server replies.
func (p *DnaDb) SearchNB(s string) (future.Future[uint32], error) {
	cell, err := p.b.InvokeNB("search", []any{s})
	if err != nil {
		return future.Future[uint32]{}, err
	}
	return future.Of[uint32](cell, 0), nil
}

// Search is the blocking stub for DnaDb.search.
func (p *DnaDb) Search(s string) (uint32, error) {
	vals, err := p.b.Invoke("search", []any{s})
	if err != nil {
		return 0, err
	}
	return vals[0].(uint32), nil
}

// DnaDbServant is the typed implementation interface for dna_db.
type DnaDbServant interface {
	Search(ctx *poa.Context, s string) (uint32, error)
}

// NewDnaDbSkeleton adapts a typed servant to the POA's dispatch.
func NewDnaDbSkeleton(impl DnaDbServant) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "search":
			ret, err := impl.Search(ctx, in[0].(string))
			if err != nil {
				return nil, nil, err
			}
			return ret, nil, nil
		}
		return nil, nil, fmt.Errorf("dna_db: no operation %q", op)
	})
}

// RegisterDnaDbSPMD collectively registers an SPMD dna_db object.
func RegisterDnaDbSPMD(p *poa.POA, key string, impl DnaDbServant) (core.IOR, error) {
	return p.RegisterSPMD(key, DnaDbIDL(), NewDnaDbSkeleton(impl))
}

// RegisterDnaDbSingle registers a single dna_db object owned by the calling thread.
func RegisterDnaDbSingle(p *poa.POA, key string, impl DnaDbServant) (core.IOR, error) {
	return p.RegisterSingle(key, DnaDbIDL(), NewDnaDbSkeleton(impl))
}
