package poa

import (
	"cmp"
	"fmt"
	"slices"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// Decision kinds broadcast by thread 0.
const (
	decDispatch byte = 1
	decShutdown byte = 2
)

// collectivePhase runs one round of the dispatch agreement in a single
// broadcast: thread 0 encodes the count and every completed invocation's
// decision (in arrival order, shutdown last) into one length-prefixed
// frame and broadcasts it once; every thread — thread 0 included — decodes
// the frame and dispatches identically. One frame instead of 2+K
// sequential broadcast rounds means agreement latency is one tree depth
// regardless of how many invocations completed in the phase.
//
// An empty phase runs only in lockstep, where the siblings block waiting for
// it, and never on a one-thread adapter. Otherwise thread 0 broadcasts only
// a frame with something in it, and a sibling joins once rts.BcastArrived
// says that frame has reached it. With AgreementDeadline set every phase is
// lockstep: a dead sibling is found only by a liveness barrier that runs
// after its death, and only threads inside a phase answer its pings.
func (p *POA) collectivePhase(lockstep bool) int {
	lockstep = (lockstep || p.AgreementDeadline > 0) && p.th.Size() > 1
	root := p.th.Rank() == 0
	n := 0 // decisions the phase announces, counted by thread 0
	if root {
		for _, k := range p.ready {
			if p.gathers[k] != nil {
				n++
			}
		}
		if p.pendingShutdown {
			n++
		}
		if n == 0 && !lockstep {
			p.ready = p.ready[:0]
			return 0
		}
	} else if !lockstep && !rts.BcastArrived(p.th, 0) {
		return 0
	}
	// The agreement collective runs before its requests are decoded, so a
	// non-root thread learns which invocations (and TraceIDs) the phase
	// carried only afterwards. The phase interval is captured up front and
	// its spans recorded post hoc, once per traced request.
	var phaseStart int64
	tracing := obs.DefaultTracer.Enabled()
	if tracing {
		phaseStart = p.th.ElapsedNS()
	}
	var frame []byte
	if root {
		poaAgreementPhases.Inc() // once per phase, at its announcer
		e := cdr.GetEncoder(8 + 160*n)
		e.PutULong(uint32(n))
		for _, k := range p.ready {
			g := p.gathers[k]
			delete(p.gathers, k)
			if g == nil {
				continue
			}
			appendDecision(e, g)
		}
		p.ready = p.ready[:0]
		if p.pendingShutdown {
			e.PutOctets(shutdownDecision)
		}
		// The frame is built in a pooled encoder but broadcast as a copy:
		// Send copies for the siblings, but thread 0 decodes its own frame,
		// and its decoded requests — and any values a servant keeps — alias
		// it past this phase, so a pooled buffer could be recycled under
		// them.
		frame = append([]byte(nil), e.Bytes()...)
		e.Release()
	}
	if p.AgreementDeadline > 0 {
		// Liveness round first: the dissemination barrier transitively
		// waits on every rank, so a dead thread is detected (and blamed)
		// even where the broadcast tree alone would never wait on it — a
		// Bcast leaf's silence is invisible to everyone.
		if err := rts.BarrierDeadline(p.th, p.AgreementDeadline); err != nil {
			p.faultAbort("agreement", err)
			return 0
		}
		var err error
		frame, err = rts.BcastDeadline(p.th, 0, frame, p.AgreementDeadline)
		if err != nil {
			p.faultAbort("agreement", err)
			return 0
		}
	} else {
		frame = rts.Bcast(p.th, 0, frame)
	}
	var phaseEnd int64
	if tracing {
		phaseEnd = p.th.ElapsedNS()
	}
	// Decisions alias the frame (GetOctets never copies), which stays alive
	// as long as any decoded request does — DESIGN.md §7 frame ownership.
	var d cdr.Decoder
	d.Reset(frame)
	n = int(d.GetULong())
	count := 0
	for i := 0; i < n; i++ {
		pay := d.GetOctets()
		if err := d.Err(); err != nil {
			p.faultCollective(fmt.Errorf("poa: corrupt dispatch frame: %w", err))
			break
		}
		var decStart int64
		if tracing {
			decStart = p.th.ElapsedNS()
		}
		req, clients, kind, err := decodeDecision(pay)
		if err != nil {
			p.faultCollective(fmt.Errorf("poa: corrupt dispatch decision: %w", err))
			break
		}
		if kind == decShutdown {
			p.shutdown = true
			continue
		}
		var decodeSpan uint64
		if tracing && req.TraceID != 0 {
			// Server-side nesting for this invocation: the decode span hangs
			// under the client's per-attempt send span (req.SpanID crossed
			// the wire for exactly this), the agreement span under the
			// decode, and the broadcast that carried the decision under the
			// agreement.
			rank := int32(p.th.Rank())
			decodeSpan = obs.NewID()
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: decodeSpan, Parent: req.SpanID,
				Layer: obs.LayerPGIOP, Name: "pgiop.decode", Op: req.Operation,
				Rank: rank, Start: decStart, End: p.th.ElapsedNS(),
			})
			agreeSpan := obs.NewID()
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: agreeSpan, Parent: decodeSpan,
				Layer: obs.LayerPOA, Name: "poa.agreement", Op: req.Operation,
				Rank: rank, Start: phaseStart, End: phaseEnd,
			})
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: obs.NewID(), Parent: agreeSpan,
				Layer: obs.LayerRTS, Name: "rts.bcast", Op: "agreement",
				Rank: rank, Start: phaseStart, End: phaseEnd,
			})
		}
		p.dispatchSPMD(req, clients, decodeSpan)
		count++
	}
	return count
}

// shutdownDecision is the one-octet decision payload announcing shutdown.
var shutdownDecision = []byte{decShutdown}

// faultCollective records an unrecoverable failure of the dispatch
// agreement itself and deactivates the adapter through the existing
// shutdown path: a decision frame that does not decode means this thread
// can no longer agree with its siblings on dispatch order, and continuing
// would silently break the §2.1 ordering guarantee. ImplIsReady returns
// after the current phase; the server program observes the cause via
// Fault.
func (p *POA) faultCollective(err error) {
	if p.fault == nil {
		p.fault = err
	}
	p.shutdown = true
}

// appendDecision encodes one dispatch decision, length-prefixed, into the
// agreement frame under construction.
func appendDecision(e *cdr.Encoder, g *gather) {
	var clients []clientInfo
	for rank, r := range g.reqs {
		clients = append(clients, clientInfo{Rank: rank, ReqID: r.ReqID, Addr: r.ReplyAddr})
	}
	slices.SortFunc(clients, func(a, b clientInfo) int { return cmp.Compare(a.Rank, b.Rank) })
	req := g.reqs[0]
	inner := cdr.GetEncoder(256)
	inner.PutOctet(decDispatch)
	inner.PutOctets(pgiop.EncodeRequest(req))
	inner.PutSeqLen(len(clients))
	for _, c := range clients {
		inner.PutLong(c.Rank)
		inner.PutULong(c.ReqID)
		inner.PutString(c.Addr)
	}
	e.PutOctets(inner.Bytes())
	inner.Release()
}

func decodeDecision(pay []byte) (*pgiop.Request, []clientInfo, byte, error) {
	// Decoded values alias pay, never the decoder, which lives on the stack.
	var d cdr.Decoder
	d.Reset(pay)
	kind := d.GetOctet()
	if kind == decShutdown {
		return nil, nil, kind, d.Err()
	}
	req, err := pgiop.DecodeRequest(d.GetOctets())
	if err != nil {
		return nil, nil, kind, err
	}
	n := d.GetSeqLen(4)
	clients := make([]clientInfo, 0, n)
	for i := 0; i < n; i++ {
		clients = append(clients, clientInfo{Rank: d.GetLong(), ReqID: d.GetULong(), Addr: d.GetString()})
	}
	return req, clients, kind, d.Err()
}

// serveSingle services a request for a single object owned by this thread.
// The entry was resolved at routing time; iov is the caller's vectored-send
// scratch (the POA's own for inline dispatch, worker-private under the
// dispatch pool). A pool worker also passes wctx, the one context it refills
// for every request it serves; inline dispatch passes nil and the dispatch
// step uses the adapter's own context (see dispatch).
//
// Nothing here defers or captures: this is the round-trip hot path, and a
// capturing defer would cost an allocation per request that the CI overhead
// gate (≤5% allocs/op with tracing off) does not grant.
//
// m is the request message, the server side's one record per call: it
// holds the decoded header (m.Req) and the servant's argument slots, and it
// is released here, once the reply is sent — by whichever goroutine served
// the request — and takes a pooled request frame with it. Argument *values*
// are the servant's to keep: copies, unless the frame is the GC's.
func (p *POA) serveSingle(e *entry, m *core.Msg, iov *[2][]byte, wctx *Context) {
	req := m.Req
	start := p.th.ElapsedNS()
	var decodeSpan, span uint64
	if req.TraceID != 0 && obs.DefaultTracer.Enabled() {
		decodeSpan, span = obs.NewID(), obs.NewID()
	}
	// The one caller is the list of clients, on the stack: dispatch and
	// answer only read it.
	var to []clientInfo
	caller := [1]clientInfo{{ReqID: req.ReqID, Addr: req.ReplyAddr}}
	if !req.Oneway {
		to = caller[:]
	}
	opIdx := e.iface.OpIndex(req.Operation)
	op, in, err := p.singleArgs(e, opIdx, m, decodeSpan)
	if err == nil {
		_, _, err = p.dispatch(e, op, in, wctx, req, nil, to, iov)
	} else {
		p.answer(to, nil, nil, err, iov)
	}
	p.loadLat.Observe(p.observe(e, opIdx, req.Operation, req.TraceID, span, decodeSpan, start, err != nil))
	m.Release()
}

// singleArgs resolves a single-object request's operation and decodes its
// inline arguments into the request's own slots. decodeSpan (0 when
// untraced) is the pgiop.decode span, pre-allocated so the dispatch span can
// nest beneath it.
func (p *POA) singleArgs(e *entry, opIdx int, m *core.Msg, decodeSpan uint64) (*core.Operation, []any, error) {
	req := m.Req
	if opIdx < 0 {
		return nil, nil, fmt.Errorf("no operation %s on %s", req.Operation, e.iface.Name)
	}
	op := &e.iface.Ops[opIdx]
	var decStart int64
	if decodeSpan != 0 {
		decStart = p.th.ElapsedNS()
	}
	in := m.Args(len(op.Params))
	err := decodeInline(op, req.Body, in, !m.FramePooled())
	if decodeSpan != 0 {
		obs.DefaultTracer.Record(obs.Span{
			Trace: req.TraceID, ID: decodeSpan, Parent: req.SpanID,
			Layer: obs.LayerPGIOP, Name: "pgiop.decode", Op: req.Operation,
			Rank: int32(p.th.Rank()), Start: decStart, End: p.th.ElapsedNS(),
		})
	}
	return op, in, err
}

// dispatch is the one dispatch step every invocation takes — a single
// object's request, each thread's share of an SPMD call, a co-located call.
// It calls the servant with in, checks the out count, encodes the results
// and sends the reply or the exception to the clients in to: a single
// object's one caller, every client of an SPMD call at its thread 0, nobody
// at an SPMD sibling, for a oneway call or for a co-located one. clients are
// where distributed outs ship, from every rank.
//
// ctx is chosen by who runs the step. The owning thread passes nil and the
// servant gets the adapter's context, saved and restored around it so a
// nested ProcessRequests cannot corrupt the outer invocation's view; a pool
// worker passes the one context it refills; a co-located call passes one of
// its own. The last two run off the owning thread, so their context has no
// POA: ProcessRequests is the owning thread's. Servants must not retain ctx
// past Invoke.
//
// req is nil for a co-located call, which takes the servant's values as they
// are: no encoding, nobody to answer. The error is the one the clients were
// sent, or the servant's when nobody was.
func (p *POA) dispatch(e *entry, op *core.Operation, in []any, ctx *Context, req *pgiop.Request, clients, to []clientInfo, iov *[2][]byte) (ret any, outs []any, err error) {
	oneway := op.Oneway
	if req != nil {
		oneway = req.Oneway
	}
	var saved Context
	owner := ctx == nil
	if owner {
		saved, ctx = p.ctx, &p.ctx
		*ctx = Context{Thread: p.th, POA: p, Oneway: oneway}
	} else {
		*ctx = Context{Thread: p.th, Oneway: oneway}
	}
	ret, outs, err = e.servant.Invoke(ctx, op.Name, in)
	if owner {
		p.ctx = saved
	}
	if oneway {
		return ret, outs, err
	}
	if want := op.OutCount(); err == nil && len(outs) != want {
		err = fmt.Errorf("servant returned %d out values for %d out parameters", len(outs), want)
	}
	if req == nil {
		return ret, outs, err
	}
	// The reply body lives in a pooled encoder until answer's vectored sends
	// return; the transport does not retain it.
	enc := cdr.GetEncoder(256)
	var body []byte
	var outLens []pgiop.OutLen
	if err == nil {
		body, outLens, err = p.encodeResults(enc, op, ret, outs, clients, req)
	}
	p.answer(to, body, outLens, err, iov)
	enc.Release()
	return ret, outs, err
}

// answer sends each client in to the reply carrying body and outLens, or the
// exception err when it is set.
func (p *POA) answer(to []clientInfo, body []byte, outLens []pgiop.OutLen, err error, iov *[2][]byte) {
	if len(to) == 0 {
		return
	}
	if err != nil {
		for _, c := range to {
			p.sendException(c.Addr, c.ReqID, err.Error())
		}
		return
	}
	hdr := cdr.GetEncoder(128)
	for _, c := range to {
		hdr.Reset()
		pgiop.AppendReply(hdr, &pgiop.Reply{ReqID: c.ReqID, Status: pgiop.StatusOK, Body: body, OutLens: outLens})
		_ = p.r.SendV2(iov, nexus.Addr(c.Addr), hdr.Bytes(), body)
	}
	hdr.Release()
}

// observe records one served invocation: the dispatch counter and latency
// histogram, the operation's poa_slo row and, when the invocation is traced
// (span != 0), its poa.dispatch span under parent. It returns the latency in
// seconds.
func (p *POA) observe(e *entry, opIdx int, op string, trace, span, parent uint64, start int64, failed bool) float64 {
	end := p.th.ElapsedNS()
	sec := float64(end-start) / 1e9
	poaDispatches.Inc()
	poaDispatchLatency.Observe(sec)
	e.slo(opIdx, op).Observe(end, sec, failed)
	if span != 0 {
		obs.DefaultTracer.Record(obs.Span{
			Trace: trace, ID: span, Parent: parent,
			Layer: obs.LayerPOA, Name: "poa.dispatch", Op: op,
			Rank: int32(p.th.Rank()), Start: start, End: end,
		})
	}
	return sec
}

// callLocal serves a co-located invocation on the caller's goroutine (see
// core.LocalTable): the dispatch step with nobody to answer and a private
// context, observed like any other dispatch. It touches nothing the owning
// thread owns, so it needs no lock. in is the call's own copy of its
// arguments, out slots nil. With no reply to carry them, the results are the
// servant's values, the out slice itself when the operation returns void.
func (p *POA) callLocal(e *entry, name string, in []any) ([]any, error) {
	start := p.th.ElapsedNS()
	opIdx := e.iface.OpIndex(name)
	var ret any
	var outs []any
	var err error
	var op *core.Operation
	switch {
	case opIdx < 0:
		err = fmt.Errorf("no operation %s on %s", name, e.iface.Name)
	case len(in) != len(e.iface.Ops[opIdx].Params):
		err = fmt.Errorf("operation %s takes %d arguments, got %d", name, len(e.iface.Ops[opIdx].Params), len(in))
	default:
		op = &e.iface.Ops[opIdx]
		ret, outs, err = p.dispatch(e, op, in, &Context{}, nil, nil, nil, nil)
	}
	p.observe(e, opIdx, name, 0, 0, 0, start, err != nil)
	if err != nil {
		return nil, err
	}
	if op.Result == nil {
		return outs, nil
	}
	return append(append(make([]any, 0, 1+len(outs)), ret), outs...), nil
}

// decodeInline unmarshals the non-distributed in/inout arguments of a
// request body into inVals, the servant argument slots (one per parameter,
// all nil on entry). borrow says the buffer behind body is the GC's — a
// frame the transport does not want back (core.Msg.FramePooled), the
// agreement frame of an SPMD dispatch — so decoded arguments may alias it
// (zero-copy) and stay valid for as long as the servant keeps them.
func decodeInline(op *core.Operation, body []byte, inVals []any, borrow bool) error {
	var dec cdr.Decoder
	dec.Reset(body)
	dec.SetBorrow(borrow)
	for i := range op.Params {
		prm := &op.Params[i]
		if prm.Distributed() || prm.Mode == core.Out {
			continue
		}
		v, err := typecode.Unmarshal(&dec, prm.Type)
		if err != nil {
			return fmt.Errorf("argument %s: %v", prm.Name, err)
		}
		inVals[i] = v
	}
	return nil
}

// dispatchSPMD runs one collective invocation on this thread. parentSpan is
// the invocation's pgiop.decode span on this thread (0 when untraced): the
// dispatch span nests under it, and the collection/agreement collectives
// under the dispatch. Thread 0 answers every client; a sibling answers none.
func (p *POA) dispatchSPMD(req *pgiop.Request, clients []clientInfo, parentSpan uint64) {
	start := p.th.ElapsedNS()
	var span uint64
	if parentSpan != 0 {
		span = obs.NewID()
	}
	var to []clientInfo
	if p.th.Rank() == 0 && !req.Oneway {
		to = clients
	}
	e := p.objects[req.ObjectKey]
	opIdx := -1
	if e != nil {
		opIdx = e.iface.OpIndex(req.Operation)
	}
	op, in, faulted, err := p.spmdArgs(e, opIdx, req, span)
	if err != nil {
		p.answer(to, nil, nil, err, &p.sendIov)
	} else if !faulted {
		_, _, err = p.dispatch(e, op, in, nil, req, clients, to, &p.sendIov)
	}
	p.observe(e, opIdx, req.Operation, req.TraceID, span, parentSpan, start, faulted || err != nil)
	p.settle(req.BindingID, req.SeqNo)
}

// spmdArgs makes the checks every thread of an SPMD dispatch makes alike and
// collects this thread's distributed in-arguments, returning the operation
// and the servant's argument slots. faulted reports that the adapter faulted
// in the collection agreement: the invocation then fails and nobody is
// answered (faultAbort flushes what is still queued).
func (p *POA) spmdArgs(e *entry, opIdx int, req *pgiop.Request, span uint64) (op *core.Operation, in []any, faulted bool, err error) {
	if e == nil {
		return nil, nil, false, fmt.Errorf("no object %q", req.ObjectKey)
	}
	if opIdx < 0 {
		return nil, nil, false, fmt.Errorf("no operation %s on %s", req.Operation, e.iface.Name)
	}
	op = &e.iface.Ops[opIdx]
	if err := fitClients(req); err != nil {
		return nil, nil, false, err
	}
	in = make([]any, len(op.Params))
	if err := decodeInline(op, req.Body, in, true); err != nil {
		return nil, nil, false, err
	}
	// Receive distributed in arguments: segments were sent directly to
	// this thread by the client threads owning overlapping elements. With a
	// deadline in force a failed collection is recorded rather than
	// returned: the agreement step below must still run so every thread
	// reaches the same verdict.
	rank, size := p.th.Rank(), p.th.Size()
	var collectErr error
	var collectStart int64
	if span != 0 && len(req.DistIns) > 0 {
		collectStart = p.th.ElapsedNS()
	}
	for _, spec := range req.DistIns {
		i := int(spec.Param)
		if i < 0 || i >= len(op.Params) || !op.Params[i].Distributed() {
			return nil, nil, false, fmt.Errorf("request names non-distributed parameter %d", i)
		}
		prm := &op.Params[i]
		serverLayout := prm.ServerDist.Layout(int(spec.N), size)
		holder := dseq.NewByTC(p.th, serverLayout, prm.Type.Elem)
		if err := p.collectSegments(req, spec, holder, serverLayout); err != nil {
			collectErr = err
			break
		}
		in[i] = holder
	}
	if span != 0 && len(req.DistIns) > 0 {
		obs.DefaultTracer.Record(obs.Span{
			Trace: req.TraceID, ID: obs.NewID(), Parent: span,
			Layer: obs.LayerPOA, Name: "poa.collect", Op: req.Operation,
			Rank: int32(rank), Start: collectStart, End: p.th.ElapsedNS(),
		})
	}
	if deadline := p.effDeadline(req); deadline > 0 && size > 1 && len(req.DistIns) > 0 {
		// A thread whose collection timed out must not diverge from
		// siblings whose collection succeeded: agree on one verdict before
		// anyone enters the servant (see ftAgree).
		var agreeStart int64
		if span != 0 {
			agreeStart = p.th.ElapsedNS()
		}
		ok, failRank, aerr := p.ftAgree(collectErr == nil, deadline)
		if span != 0 {
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: obs.NewID(), Parent: span,
				Layer: obs.LayerRTS, Name: "rts.allreduce", Op: "collect-agree",
				Rank: int32(rank), Start: agreeStart, End: p.th.ElapsedNS(),
			})
		}
		if aerr != nil {
			p.faultAbort("collect-agree", aerr)
			return nil, nil, true, nil
		}
		if !ok && collectErr == nil {
			collectErr = fmt.Errorf("collective aborted: server thread %d failed its argument collection", failRank)
		}
	}
	return op, in, false, collectErr
}

// settle drops what this thread still holds of binding's calls at or below
// seq, once seq has been dispatched: segments of calls cancelled, refused or
// timed out before they were collected, and on thread 0 part-gathered
// headers. A binding's calls complete their gathers in sequence order and a
// call with distributed arguments is never retried, so none of them can be
// dispatched any more (DESIGN.md §9). A complete gather — a retried call of a
// one-thread binding, waiting for its phase — is kept. Sequence numbers
// compare modulo 2^32.
func (p *POA) settle(binding string, seq uint32) {
	for k := range p.segs {
		if k.binding == binding && int32(k.seq-seq) <= 0 {
			delete(p.segs, k)
		}
	}
	for k, g := range p.gathers {
		if k.binding == binding && int32(k.seq-seq) <= 0 && len(g.reqs) < g.size {
			delete(p.gathers, k)
		}
	}
}

// fitClients holds a collective request's distribution specs to the client
// they describe — the ClientSize it was gathered by — before any layout is
// built from them: a dist-in layout spans the client's threads, and a
// dist-out template has one weight per client thread and its root among
// them. Every server thread checks the same request, so all reach the same
// verdict.
func fitClients(req *pgiop.Request) error {
	n := int(req.ClientSize)
	for _, s := range req.DistIns {
		if s.Layout.P != n {
			return fmt.Errorf("distributed argument %d is laid out over %d threads, not the client's %d", s.Param, s.Layout.P, n)
		}
	}
	for _, s := range req.DistOuts {
		t := s.Tmpl
		if (t.Kind == dist.Weighted && len(t.Weights) != n) || (t.Kind == dist.Collapsed && t.Root >= n) {
			return fmt.Errorf("out argument %d's %v distribution (root %d, %d weights) does not fit the client's %d threads",
				s.Param, t.Kind, t.Root, len(t.Weights), n)
		}
	}
	return nil
}

// collectSegments consumes the in-direction segments of one distributed
// argument, through core.ApplySegment, until this thread's share is
// complete. When the request (or the adapter) carries a deadline, the wait is
// bounded: expiry cleans up the key and reports which client ranks still owed
// elements, and the adapter stays dispatchable. Segments that arrive for the
// key later go when the binding's next call settles (settle).
func (p *POA) collectSegments(req *pgiop.Request, spec pgiop.DistInSpec, holder dseq.Distributed, serverLayout dist.Layout) error {
	param := spec.Param
	rank := p.th.Rank()
	need := serverLayout.Count(rank)
	k := segKey{req.BindingID, req.SeqNo, param}
	deadline := p.effDeadline(req)
	var until float64
	var gotBy map[int]int
	if deadline > 0 {
		until = p.th.Elapsed() + deadline
		gotBy = map[int]int{}
	}
	got := 0
	for got < need {
		if len(p.segs[k]) == 0 {
			if deadline <= 0 {
				if !p.pull(true) {
					return fmt.Errorf("transport closed while receiving argument %d", param)
				}
				continue
			}
			// Eager on purpose: the segments this wait is for may sit
			// anywhere behind other traffic, so everything pending is
			// routed; single-object requests it passes are set aside in
			// localQ and served first by the next dispatch-loop turn.
			p.drain()
			if len(p.segs[k]) == 0 {
				if p.th.Elapsed() >= until {
					delete(p.segs, k)
					return segTimeout(rank, spec, serverLayout, gotBy, got, need)
				}
				p.th.WaitUntil(until)
			}
			continue
		}
		a := p.segs[k][0]
		p.segs[k] = p.segs[k][1:]
		n, err := core.ApplySegment(holder, a, need-got, &p.runScratch)
		if err != nil {
			return fmt.Errorf("argument %d: %v", param, err)
		}
		got += n
		if gotBy != nil {
			gotBy[int(a.Sender)] += n
		}
	}
	delete(p.segs, k) // the consumed segments go now, not after the servant
	return nil
}

// encodeResults marshals the inline reply body (return value + non-
// distributed outs, one per out parameter) into enc — owned by the caller,
// which must keep it alive until the reply has been sent — and, for SPMD
// dispatch, ships distributed out segments directly to the client threads.
func (p *POA) encodeResults(enc *cdr.Encoder, op *core.Operation, ret any, outs []any,
	clients []clientInfo, req *pgiop.Request) ([]byte, []pgiop.OutLen, error) {
	if op.Result != nil {
		if err := typecode.Marshal(enc, op.Result, ret); err != nil {
			return nil, nil, fmt.Errorf("return value: %v", err)
		}
	}
	var outLens []pgiop.OutLen
	outIdx := 0
	for i := range op.Params {
		prm := &op.Params[i]
		if prm.Mode == core.In {
			continue
		}
		val := outs[outIdx]
		outIdx++
		if !prm.Distributed() {
			if err := typecode.Marshal(enc, prm.Type, val); err != nil {
				return nil, nil, fmt.Errorf("out value %s: %v", prm.Name, err)
			}
			continue
		}
		holder, ok := val.(dseq.Distributed)
		if !ok {
			return nil, nil, fmt.Errorf("servant returned %T for distributed out %s", val, prm.Name)
		}
		tmpl := prm.ClientDist
		for _, s := range req.DistOuts {
			if int(s.Param) == i {
				tmpl = s.Tmpl
			}
		}
		clientLayout := tmpl.Layout(holder.GlobalLen(), int(req.ClientSize))
		// Each client thread matches out-segments by its own request ID.
		err := core.SendSegments(p.TransferPolicy, p.r, req, i, pgiop.DirOut, holder, p.th.Rank(), clientLayout,
			func(thread int) (nexus.Addr, uint32) {
				return nexus.Addr(clients[thread].Addr), clients[thread].ReqID
			})
		if err != nil {
			return nil, nil, err
		}
		outLens = append(outLens, pgiop.OutLen{Param: int32(i), N: int32(holder.GlobalLen()), Layout: holder.DLayout()})
	}
	return enc.Bytes(), outLens, nil
}
