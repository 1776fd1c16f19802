package core

import (
	"fmt"

	"pardis/internal/dist"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
)

// Binding connects a client thread's proxy to an object implementation.
// Bindings created with Bind represent the thread alone; bindings created
// with SPMDBind represent the whole parallel client as one entity, and all
// operations on them must be invoked collectively.
type Binding struct {
	orb   *ORB
	ior   IOR
	iface *InterfaceDef
	id    string
	seq   uint32
	spmd  bool
	local LocalHandler // the co-located object's direct call, if any
	depth *int         // the ORB's in-flight counter of the server (ORB.inflight)

	outDists map[string]map[int]dist.Template

	// slos caches each operation's orb_slo entry by index into iface.Ops,
	// filled on first invocation so uninvoked operations get no SLO row.
	slos []*obs.SLOOp

	deadline float64 // per-invocation deadline, seconds; 0 = unbounded
	retry    RetryPolicy

	// forceTrace, when nonzero, makes traced invocations reuse this TraceID
	// instead of minting one — how a group binding pins a single trace
	// across member attempts of one logical invocation.
	forceTrace uint64
}

// Bind establishes a per-thread binding to the object (the paper's bind():
// "one binding per thread"). The interface definition is the stub's
// compiled-in operation table; server-side distribution overrides from the
// IOR are applied to a private copy.
func (o *ORB) Bind(ior IOR, iface *InterfaceDef) (*Binding, error) {
	def := iface.Clone()
	if err := ior.ApplyOverrides(def); err != nil {
		return nil, err
	}
	o.nextBind++
	b := &Binding{
		orb:      o,
		ior:      ior,
		iface:    def,
		id:       fmt.Sprintf("%s#%d", o.r.Addr(), o.nextBind),
		outDists: map[string]map[int]dist.Template{},
		slos:     make([]*obs.SLOOp, len(def.Ops)),
		depth:    o.depth(ior),
	}
	if o.local != nil && !ior.SPMD {
		b.local = o.local.lookup(ior.Key)
	}
	return b, nil
}

// SPMDBind collectively establishes a binding representing the parallel
// client as one entity to the ORB. Every client thread must call it; all
// threads receive a binding with the same identity, and every operation on
// it must subsequently be invoked collectively.
func (o *ORB) SPMDBind(ior IOR, iface *InterfaceDef) (*Binding, error) {
	b, err := o.Bind(ior, iface)
	if err != nil {
		return nil, err
	}
	b.spmd = true
	if o.comm != nil {
		// All threads must share the binding id: thread 0's wins.
		b.id = string(rts.Bcast(o.comm, 0, []byte(b.id)))
	}
	// A collective binding may use distributed arguments even from a
	// one-thread client program; a plain Bind may not.
	return b, nil
}

// opSLO returns the orb_slo entry of the operation at index k of the
// binding's table, resolving it on first use.
func (b *Binding) opSLO(k int) *obs.SLOOp {
	if b.slos[k] == nil {
		b.slos[k] = orbSLO.Op(b.iface.Ops[k].Name)
	}
	return b.slos[k]
}

// IOR returns the bound object's reference.
func (b *Binding) IOR() IOR { return b.ior }

// SPMD reports whether this is a collective binding.
func (b *Binding) SPMD() bool { return b.spmd }

// SetOutDist sets the client-side distribution template for a distributed
// out parameter of the named operation, used by subsequent invocations —
// the paper's "the client can set the distribution of the expected out
// arguments before making an invocation".
func (b *Binding) SetOutDist(op string, param int, t dist.Template) error {
	opDef, ok := b.iface.Op(op)
	if !ok {
		return fmt.Errorf("core: interface %s has no operation %s", b.iface.Name, op)
	}
	if param < 0 || param >= len(opDef.Params) || !opDef.Params[param].Distributed() || opDef.Params[param].Mode != Out {
		return fmt.Errorf("core: %s.%s parameter %d is not a distributed out parameter", b.iface.Name, op, param)
	}
	m := b.outDists[op]
	if m == nil {
		m = map[int]dist.Template{}
		b.outDists[op] = m
	}
	m[param] = t
	return nil
}

func (b *Binding) outDist(op string, param int, prm *Param) dist.Template {
	if m, ok := b.outDists[op]; ok {
		if t, ok := m[param]; ok {
			return t
		}
	}
	return prm.ClientDist
}

// SetDeadline bounds every subsequent invocation on this binding: an
// invocation that has not completed (reply plus all distributed out
// segments) within seconds resolves its futures with an InvokeError
// wrapping ErrDeadline, attributing the silent server ranks. The deadline
// travels in the request header so the server can bound its own blocking
// waits to the same budget. Zero restores unbounded waiting.
func (b *Binding) SetDeadline(seconds float64) { b.deadline = seconds }

// Deadline returns the binding's per-invocation deadline (seconds).
func (b *Binding) Deadline() float64 { return b.deadline }

// SetRetryPolicy arms automatic re-issue of timed-out invocations on this
// binding. Retries apply only to idempotent, non-oneway, non-collective
// operations with a deadline set — see RetryPolicy for the rationale.
func (b *Binding) SetRetryPolicy(rp RetryPolicy) { b.retry = rp }

// Locate asks the server whether it hosts the bound object — the
// LocateRequest round trip.
func (b *Binding) Locate() (bool, error) {
	o := b.orb
	o.mu.Lock()
	id := o.newReqIDLocked()
	o.mu.Unlock()
	msg := pgiop.EncodeLocateRequest(&pgiop.LocateRequest{ReqID: id, ObjectKey: b.ior.Key})
	if err := o.r.Send(nexus.Addr(b.ior.Addrs[0]), msg); err != nil {
		return false, err
	}
	// Locate replies arrive interleaved with other traffic; loop until
	// ours shows up, handling everything else normally.
	for {
		m, _, err := o.r.RecvClient(true)
		if err != nil {
			return false, err
		}
		if m.Type == pgiop.MsgLocateReply {
			if m.LocReply.ReqID == id {
				return m.LocReply.Found, nil
			}
			continue
		}
		o.handleMsg(m)
	}
}

// Shutdown asks the bound object's server to leave its dispatch loop.
func (b *Binding) Shutdown(reason string) error {
	return b.orb.r.Send(nexus.Addr(b.ior.Addrs[0]), pgiop.EncodeShutdown(&pgiop.Shutdown{Reason: reason}))
}

// Inline argument bodies are nested octet sequences inside frames;
// alignment is relative to the body's own origin on both sides, so bodies
// are encoded and decoded with their own (pooled) encoder/decoder rather
// than the frame's.
