// Package poa implements PARDIS' server-side object adapter: servant
// registration for single and SPMD objects, the ImplIsReady dispatch loop
// and the ProcessRequests mid-computation poll (both collective with
// respect to all computing threads of the server, as the paper requires),
// and direct parallel reception/transmission of distributed arguments.
//
// # Collective dispatch
//
// An SPMD invocation is accepted only when every client thread has issued
// it. All request headers arrive at server thread 0, which gathers them per
// (binding, sequence number); at the end of a polling round thread 0 packs
// every completed set's dispatch decision into a single agreement frame and
// broadcasts it once through the server's run-time system (a log-depth
// tree), so every computing thread dequeues requests in the identical
// order — the ordering guarantee of §2.1 at one broadcast of latency per
// phase regardless of how many invocations completed. Threads then collect
// their in-argument segments (which client threads sent them directly), run
// the servant collectively, ship out-argument segments directly to the
// client threads, and thread 0 completes the invocation with per-thread
// replies.
//
// ImplIsReady runs a phase only to announce something, so no sibling's
// mailbox fills with empty ones; an explicit ProcessRequests runs one per
// call on every thread, so a nested SPMD dispatch starts at the same call
// everywhere.
//
// Single objects are dispatched locally by their owning thread with no
// collective machinery and no agreement phase, which is what allows the
// distributed list-server placement of the paper's Figure 4 to parallelize
// client queries.
package poa

import (
	"fmt"
	"math"
	"sync/atomic"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
)

// Servant is an object implementation. For SPMD objects every computing
// thread holds a servant instance and Invoke is called collectively on all
// of them; distributed in-arguments arrive as dseq.Distributed values
// already holding the thread's local portion, and distributed out values
// must be returned as dseq.Distributed with their server-side layout.
// outs has one entry per out/inout parameter, in declaration order. A
// co-located caller (core.LocalTable) gets the values themselves, not
// copies — for a void operation the outs slice itself — so a servant
// returns a fresh outs slice per call.
//
// The in slice, like ctx, belongs to the adapter and is valid only during
// Invoke: its slots are recycled with the request's record once the reply
// has been sent. The values in it are the servant's to keep: they are copies
// of what a small request frame carried (the frame goes back to the transport
// with the record) or alias a large one, which then lives as long as any of
// them does.
type Servant interface {
	Invoke(ctx *Context, op string, in []any) (ret any, outs []any, err error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(ctx *Context, op string, in []any) (any, []any, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(ctx *Context, op string, in []any) (any, []any, error) {
	return f(ctx, op, in)
}

// Context is passed to servant invocations.
type Context struct {
	// Thread is the computing thread's run-time-system context.
	Thread rts.Thread
	// POA lets a servant poll for further requests during a long
	// computation — POA::process_requests() in the paper's §4.2.
	POA *POA
	// Oneway reports that no reply will be sent.
	Oneway bool
}

type entry struct {
	iface   *core.InterfaceDef
	servant Servant
	spmd    bool
	// slos caches each operation's poa_slo entry by index into iface.Ops,
	// filled on first dispatch so unserved operations get no SLO row.
	// Atomic because dispatch-pool workers fill and read it concurrently;
	// racing fills store the same entry.
	slos []atomic.Pointer[obs.SLOOp]
}

func newEntry(iface *core.InterfaceDef, s Servant, spmd bool) *entry {
	return &entry{iface: iface, servant: s, spmd: spmd, slos: make([]atomic.Pointer[obs.SLOOp], len(iface.Ops))}
}

// slo returns the poa_slo entry for the operation at index k of e's table.
// A dispatch that never resolved an entry or operation (e == nil or k < 0)
// is accounted under the name the request carried.
func (e *entry) slo(k int, name string) *obs.SLOOp {
	if e == nil || k < 0 {
		return poaSLO.Op(name)
	}
	o := e.slos[k].Load()
	if o == nil {
		o = poaSLO.Op(name)
		e.slos[k].Store(o)
	}
	return o
}

type invKey struct {
	binding string
	seq     uint32
}

type segKey struct {
	binding string
	seq     uint32
	param   int32
}

// clientInfo is one client thread's identity for an invocation.
type clientInfo struct {
	Rank  int32
	ReqID uint32
	Addr  string
}

// gather collects an SPMD call's headers, one per client thread, at thread 0;
// the call is ready once all size of them have arrived.
type gather struct {
	reqs map[int32]*pgiop.Request
	size int
}

// POA is one computing thread's server-side adapter. An SPMD server
// creates one POA per thread over the thread's router and communicator;
// registration and dispatch calls are collective across them.
type POA struct {
	th    rts.Thread
	r     *core.Router
	local *core.LocalTable

	objects map[string]*entry

	// Thread 0 only: header gathering and the ready queue.
	gathers map[invKey]*gather
	ready   []invKey

	localQ          []localReq // single-object requests for this thread
	localQHead      int        // next localQ entry to serve; rewound with the queue when it empties
	segs            map[segKey][]*pgiop.ArgStream
	shutdown        bool
	pendingShutdown bool
	fault           error // unrecoverable agreement failure (see faultCollective)

	// pool, when non-nil, pipelines single-object dispatch across worker
	// goroutines (see SetDispatchAuto). SPMD dispatch never uses it.
	pool *dispatchPool

	// Admission control (see SetAdmission): admitted counts single-object
	// requests taken from the transport and not yet finished — waiting in
	// localQ, queued to the pool, or executing. Requests still in the
	// endpoint's inbox are not counted (see take); with an admission limit
	// armed every arrival is taken at once, so there are none. It is atomic
	// (not owning-thread state) because
	// pool workers decrement it and LoadReport reads it from heartbeat
	// goroutines. shedScratch is the reusable shed reply header, touched
	// only from the owning thread at routing time.
	admitLimit  int
	shedHintMS  uint32
	admitted    atomic.Int64
	shedCount   atomic.Uint64
	shedScratch pgiop.Reply

	// loadLat is the adapter's own single-object dispatch latency histogram
	// — the per-replica load signal LoadReport exports, kept separate from
	// the process-wide poa_dispatch_latency_seconds so co-hosted replicas
	// report their own saturation, not each other's. Like every observation
	// of the adapter it is on the owning thread's clock (th.ElapsedNS), so
	// what a simulated replica reports to the registry is a function of the
	// simulation alone.
	loadLat obs.Histogram

	// ctx is the reusable invocation context the owning thread hands to
	// servants: it is valid only for the duration of one Invoke call (saved
	// and restored around nested dispatch from ProcessRequests), so servants
	// must not retain it. sendIov is the scratch buffer list for two-buffer
	// vectored sends (Router.SendV2); runScratch is core.ApplySegment's run
	// buffer, reused across incoming segments. All are safe as fields because
	// they are touched only from the owning thread (pool workers and
	// co-located callers carry their own).
	ctx        Context
	sendIov    [2][]byte
	runScratch []dist.Run

	// PollInterval is the idle wait inside ImplIsReady, seconds, on the
	// sim fabric and on endpoints that cannot signal arrival. On fabrics
	// with arrival notification (nexus.RecvNotifier, evented) the idle wait
	// parks until a frame lands, and PollInterval paces only what is due
	// at an instant: the rounds of an AgreementDeadline's liveness barrier,
	// and the dispatch pool's idle window (poolIdleRounds of it).
	PollInterval float64
	evented      bool

	// AgreementDeadline, when > 0, bounds the per-round collective dispatch
	// agreement and adds a liveness barrier to it, so the abrupt death of
	// any sibling computing thread surfaces as a rank-attributed Fault on
	// every survivor (within about 2× the deadline) instead of a hang; every
	// polling round then runs a phase. It must be set well above
	// PollInterval: threads enter the agreement up to one polling interval
	// apart, and a deadline inside that skew would fault a healthy server.
	// Collective: every thread must set the same value. 0 (the default)
	// keeps the unbounded wait.
	AgreementDeadline float64

	// CollectDeadline, when > 0, bounds the wait for distributed
	// in-argument segments of requests that carry no deadline of their own
	// (a request's wire deadline takes precedence). A collection that times
	// out fails the invocation with an exception naming the client ranks
	// whose segments never arrived — the adapter itself stays dispatchable.
	CollectDeadline float64

	// peers holds every computing thread's router address (from the
	// RegisterSPMD all-gather), the notification fan-out for faults.
	peers []string

	// TransferPolicy configures how distributed out-results are shipped to
	// client threads (encodeResults).
	core.TransferPolicy
}

// New creates the adapter for one computing thread. table (optional)
// receives direct-call registrations for single objects, enabling the
// co-located bypass.
func New(th rts.Thread, r *core.Router, table *core.LocalTable) *POA {
	p := &POA{
		th:           th,
		r:            r,
		local:        table,
		objects:      map[string]*entry{},
		gathers:      map[invKey]*gather{},
		segs:         map[segKey][]*pgiop.ArgStream{},
		PollInterval: 200e-6,
	}
	// The router's endpoint joins the thread's timed wait, which its rts
	// endpoint already feeds, so an idle thread wakes on a request or on
	// thread 0's agreement frame alike. A thread on a virtual clock keeps
	// the plain polling sleep, the cadence the paper's figures were
	// modelled with; so does an endpoint that cannot signal.
	p.evented = r != nil && r.WatchBy(th) && !rts.Virtual(th)
	return p
}

// idleWait parks the thread until a frame arrives, or until the earliest
// instant something is due at: the next round of an AgreementDeadline's
// liveness barrier, one PollInterval on, so every deadline argument built
// on polling cadence (AgreementDeadline skew) holds unchanged; and the
// shrink instant of a dispatch pool above its min. With neither it reads no
// clock and sets no deadline. Without arrival signals it sleeps
// PollInterval, the paper's polling adapter.
func (p *POA) idleWait() {
	if !p.evented {
		p.th.Sleep(p.PollInterval)
		return
	}
	at := math.Inf(1)
	if p.AgreementDeadline > 0 {
		at = p.th.Elapsed() + p.PollInterval
	}
	if p.pool != nil {
		at = min(at, p.pool.shrinkAt(p))
	}
	p.th.WaitUntil(at)
}

// Thread returns the POA's computing-thread context.
func (p *POA) Thread() rts.Thread { return p.th }

// Router returns the POA's frame router.
func (p *POA) Router() *core.Router { return p.r }

// RegisterSPMD collectively registers an SPMD object: every computing
// thread calls it with the same key and its own servant instance. The
// returned IOR carries every thread's endpoint address.
func (p *POA) RegisterSPMD(key string, iface *core.InterfaceDef, s Servant) (core.IOR, error) {
	if err := iface.Validate(); err != nil {
		return core.IOR{}, err
	}
	if _, dup := p.objects[key]; dup {
		return core.IOR{}, fmt.Errorf("poa: object key %q already registered", key)
	}
	p.objects[key] = newEntry(iface, s, true)
	addrs := rts.AllGather(p.th, []byte(p.r.Addr()))
	ior := core.IOR{
		Interface:  iface.Name,
		Key:        key,
		SPMD:       true,
		ServerSize: p.th.Size(),
		Host:       p.th.HostName(),
	}
	for _, a := range addrs {
		ior.Addrs = append(ior.Addrs, string(a))
	}
	p.peers = ior.Addrs
	// Publish server-side distribution overrides so clients compute
	// identical transfer schedules.
	for oi := range iface.Ops {
		op := &iface.Ops[oi]
		for pi := range op.Params {
			prm := &op.Params[pi]
			if prm.Distributed() && prm.Mode == core.In {
				ior.InDists = append(ior.InDists, core.DistOverride{Op: op.Name, Param: pi, Tmpl: prm.ServerDist})
			}
		}
	}
	return ior, nil
}

// RegisterSingle registers a single object owned by the calling thread
// alone ("single objects are associated with only one computing thread").
// Operations with distributed arguments are rejected, per §3.1. Not
// collective.
func (p *POA) RegisterSingle(key string, iface *core.InterfaceDef, s Servant) (core.IOR, error) {
	if err := iface.Validate(); err != nil {
		return core.IOR{}, err
	}
	for oi := range iface.Ops {
		if iface.Ops[oi].HasDistributed() {
			return core.IOR{}, fmt.Errorf("poa: single object %q cannot serve operation %s with distributed arguments",
				key, iface.Ops[oi].Name)
		}
	}
	if _, dup := p.objects[key]; dup {
		return core.IOR{}, fmt.Errorf("poa: object key %q already registered", key)
	}
	e := newEntry(iface, s, false)
	p.objects[key] = e
	if p.local != nil {
		p.local.Register(key, func(op *core.Operation, args []any) ([]any, error) {
			return p.callLocal(e, op.Name, args)
		})
	}
	return core.IOR{
		Interface:  iface.Name,
		Key:        key,
		SPMD:       false,
		ServerSize: 1,
		Addrs:      []string{string(p.r.Addr())},
		Host:       p.th.HostName(),
	}, nil
}

// Deactivate marks the server for shutdown; ImplIsReady returns after the
// current collective round.
func (p *POA) Deactivate() { p.pendingShutdown = true }

// Fault reports the internal failure that deactivated the adapter, if any:
// non-nil after the dispatch agreement received a frame it could not decode
// or — with AgreementDeadline set — after a sibling computing thread died
// (then it is a *Fault carrying the implicated rank; use errors.As). Nil
// after a clean Deactivate or Shutdown message. Check it when ImplIsReady
// returns unexpectedly.
func (p *POA) Fault() error { return p.fault }

// ImplIsReady passes control to PARDIS: the thread serves requests until
// the server is deactivated (by Deactivate or a Shutdown message), serving
// what has arrived and parking on its timed wait, whose read looks for more,
// when nothing has. Collective with respect to all computing threads of the
// server, but announce-only: thread 0 runs an agreement phase only for an
// SPMD invocation or the shutdown, and a sibling joins it when its frame
// arrives, parking on its timed wait until then (every round, with
// AgreementDeadline set).
func (p *POA) ImplIsReady() {
	for {
		n := p.processRequests(false)
		if p.shutdown {
			// Drain pooled dispatches so every accepted request is answered
			// before control returns to the server program.
			p.stopDispatchPool()
			return
		}
		if n == 0 {
			p.idleWait()
		}
	}
}

// ProcessRequests polls for and dispatches pending requests, then returns,
// allowing the server to proceed with an interrupted computation.
// Collective with respect to all computing threads of the server, and
// lockstep: every call runs one agreement phase, empty or not, on every
// thread. It returns the number of requests this thread dispatched.
func (p *POA) ProcessRequests() int { return p.processRequests(true) }

// processRequests runs one dispatch round: ProcessRequests' (lockstep), or
// ImplIsReady's, which parks in the idle wait when it serves nothing. The
// wait's read is then the probe of the connection, so an ImplIsReady round
// that waits on arrivals takes only what has been delivered (DESIGN.md §12)
// — unless admission control is armed, whose take drains the transport.
func (p *POA) processRequests(lockstep bool) int {
	queued := !lockstep && p.evented && p.admitLimit == 0
	count := 0
	p.take(queued)
	// Single-object requests are served by their owning thread alone —
	// inline, or handed to the dispatch pool so independent requests
	// pipeline while this thread keeps polling the transport.
	for len(p.localQ) > 0 {
		// Pop by head index and rewind when empty: O(1) however many
		// requests a nested wait or the admission arm set aside, and the
		// backing array keeps its capacity across dispatch rounds.
		lr := p.localQ[p.localQHead]
		p.localQ[p.localQHead] = localReq{}
		if p.localQHead++; p.localQHead == len(p.localQ) {
			p.localQ, p.localQHead = p.localQ[:0], 0
		}
		if p.pool != nil {
			p.pool.submit(p, lr)
		} else {
			p.serveSingle(lr.e, lr.m, &p.sendIov, nil)
			p.admitted.Add(-1)
		}
		count++
		p.take(queued)
	}
	// take came back with nothing to serve, so the inbox is empty: every
	// frame that had been delivered — a Shutdown behind a burst included —
	// has been routed before the collective phase looks at pendingShutdown.
	//
	// The dispatch pool's shrink arm is steered here, the owning-thread safe
	// point every dispatch round passes through, so resizing never races the
	// hand-off above (which runs the grow arm itself when it would block).
	if p.pool != nil {
		p.pool.tune(p)
	}
	// Collective phase: thread 0 announces the completed SPMD
	// invocations (and shutdown) in its arrival order.
	count += p.collectivePhase(lockstep)
	return count
}

// take pulls frames from the transport until one single-object request is
// waiting to be served (or handed to the pool), or nothing is pending. What
// the adapter cannot dispatch yet stays in the endpoint's inbox — the one
// backlog — where the TCP write combiner looks for "its owner will send
// again" (DESIGN.md §12, observation (a)): a busy server's replies then
// share their write(2)s the way a busy caller's requests do.
//
// With admission control armed take is drain: a shed must look at every
// arrival when it arrives (SetAdmission: "refused immediately"), and a
// serial adapter's admitted count only ever exceeds 1 because arrivals were
// taken while one was being served. With queued it takes only frames
// already delivered (core.Router.PollServer).
func (p *POA) take(queued bool) {
	for p.admitLimit > 0 || len(p.localQ) == 0 {
		m, ok, err := p.r.PollServer(queued)
		if err != nil || !ok {
			return
		}
		p.route(m)
	}
}

// drain moves every pending frame from the transport into the adapter's
// queues without blocking. Only the callers that must be eager use it: the
// nested segment wait (it is looking for its own segments, wherever in the
// inbox they are) and the fault flush (every request that reached the
// adapter gets the exception). The dispatch loop uses take.
func (p *POA) drain() {
	for p.pull(false) {
	}
}

// pull routes the next server-bound frame into the adapter's queues and
// reports whether there was one; with block it waits for it.
func (p *POA) pull(block bool) bool {
	m, ok, err := p.r.RecvServer(block)
	if err != nil || !ok {
		return false
	}
	p.route(m)
	return true
}

// route files one server-bound frame. Frames are routed in arrival order,
// when the owning thread reaches them: a Locate, Cancel, Shutdown or Fault
// that arrived behind single-object requests is handled after they have been
// served, not ahead of them. ImplIsReady's promise does not depend on that —
// ProcessRequests runs until the inbox is empty before its collective phase
// looks at pendingShutdown.
func (p *POA) route(m *core.Msg) {
	switch m.Type {
	case pgiop.MsgRequest:
		p.routeRequest(m)
	case pgiop.MsgArgStream:
		a := m.Arg
		k := segKey{a.BindingID, a.SeqNo, a.Param}
		p.segs[k] = append(p.segs[k], a)
	case pgiop.MsgLocateRequest:
		_, found := p.objects[m.Loc.ObjectKey]
		reply := pgiop.EncodeLocateReply(&pgiop.LocateReply{ReqID: m.Loc.ReqID, Found: found})
		_ = p.r.Send(m.From, reply)
	case pgiop.MsgCancelRequest:
		delete(p.gathers, invKey{m.Cancel.BindingID, m.Cancel.SeqNo})
	case pgiop.MsgShutdown:
		p.pendingShutdown = true
	case pgiop.MsgFault:
		p.adoptFault(m.Fault)
	}
}

func (p *POA) routeRequest(m *core.Msg) {
	req := m.Req
	e := p.objects[req.ObjectKey]
	if e == nil {
		if !req.Oneway {
			p.sendException(req.ReplyAddr, req.ReqID, fmt.Sprintf("no object %q on this server", req.ObjectKey))
		}
		return
	}
	if !e.spmd {
		// Admission watermark: refuse before any dispatch state is built,
		// so an overloaded adapter answers in transport time.
		if p.overAdmission() {
			p.shed(req)
			m.Release()
			return
		}
		p.admitted.Add(1)
		// Capture the entry now so pool workers never read the object
		// table concurrently with the owning thread.
		p.localQ = append(p.localQ, localReq{e: e, m: m})
		return
	}
	// SPMD headers arrive only at thread 0.
	k := invKey{req.BindingID, req.SeqNo}
	g := p.gathers[k]
	if g == nil {
		g = &gather{reqs: map[int32]*pgiop.Request{}, size: int(req.ClientSize)}
		p.gathers[k] = g
	}
	g.reqs[req.ClientRank] = req
	if len(g.reqs) == g.size {
		p.ready = append(p.ready, k)
	}
}

func (p *POA) sendException(addr string, reqID uint32, msg string) {
	poaExceptions.Inc()
	reply := pgiop.EncodeReply(&pgiop.Reply{ReqID: reqID, Status: pgiop.StatusException, Error: msg})
	_ = p.r.Send(nexus.Addr(addr), reply)
}
