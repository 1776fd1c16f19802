package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// ORB is the client-side Object Request Broker state of one computing
// thread. An SPMD client creates one ORB per thread (each wrapping that
// thread's nexus endpoint and sharing the program's rts communicator); a
// single client passes a nil communicator.
//
// ORB methods must be called from the owning thread. Replies and
// distributed-argument segments are processed on the same thread while it
// waits on (or polls) a future — the single-threaded model of NexusLite.
type ORB struct {
	r     *Router
	comm  rts.Comm // nil for a single (non-SPMD) client
	local *LocalTable

	mu      sync.Mutex // guards pending/backoff across resolve/pump reentry
	pending map[uint32]*pendingReq
	backoff []*pendingReq // timed-out retryable requests awaiting re-issue
	// inflight counts pending two-way requests per server connection
	// (keyed by the server's thread-0 address, the peer all requests of a
	// binding are issued to). It is the pipelining ledger: with the
	// multiplexed transport many requests ride one connection back to
	// back, and these counters — owned by o.mu alongside pending itself —
	// are what deadline sweeps, cancels and transport failures decrement so
	// depth never drifts from reality. A binding resolves its server's
	// counter once, at Bind (Binding.depth), so issuing and claiming a call
	// count without a lookup.
	inflight map[string]*int
	// timed counts pending requests with a deadline armed (deadlineAt > 0),
	// kept by the same track/untrack calls as inflight so the pump's "is
	// anything timed?" check is O(1) however deep the pipeline.
	timed    int
	nextReq  uint32
	nextBind int

	// driver is the one Pump every cell this ORB mints points at (a
	// per-invocation closure would allocate).
	driver *future.Pump
	// w is the timed wait the pump parks on and the clock the ORB's
	// deadlines, spans, latency histogram and SLO stamps are on: its
	// computing thread's, else its own on the process's wall clock.
	w       nexus.TimedWait
	watched bool // the router's endpoint feeds w (waitUntil)
	// sendIov is the scratch buffer list for two-buffer vectored sends
	// (Router.SendV2). Safe as a field because ORB methods run on the owning
	// thread only.
	sendIov [2][]byte
	// runScratch is ApplySegment's run buffer, reused across incoming
	// out-argument segments; same owning-thread discipline as sendIov.
	runScratch []dist.Run
	// free holds finished call records for reuse (record/recycle), at most
	// maxFreeRecords of them; same owning-thread discipline.
	free []*pendingReq

	// TransferPolicy configures how distributed in-arguments are shipped
	// (sendSegments).
	TransferPolicy
}

// NewORB creates the ORB state for one computing thread. r is the thread's
// frame router (shared with a POA when the program is also a server); comm
// is the thread's run-time-system communicator (nil for single clients);
// table is the process-local object table enabling the co-located
// direct-call shortcut (may be nil).
func NewORB(r *Router, comm rts.Comm, table *LocalTable) *ORB {
	o := &ORB{r: r, comm: comm, local: table, pending: map[uint32]*pendingReq{}, inflight: map[string]*int{}}
	if th, ok := comm.(rts.Thread); ok {
		o.w = th
	} else {
		o.w = nexus.NewWaiter()
	}
	o.driver = future.NewPump(o.pump, o.w.Elapsed)
	return o
}

// waitUntil parks on the ORB's wait until a frame reaches the router or until
// at. The first call only watches the router, so a client that arms no
// deadline pays no arrival signal per reply, and returns: a frame that landed
// before the watch signalled nobody, so the caller probes again.
func (o *ORB) waitUntil(at float64) {
	if !o.watched {
		o.watched = true
		o.w.Watch(o.r.ep)
		return
	}
	o.w.WaitUntil(at)
}

// pause lets delay seconds pass on the ORB's clock, parked on its wait.
func (o *ORB) pause(delay float64) {
	for until := o.w.Elapsed() + delay; o.w.Elapsed() < until; {
		o.waitUntil(until)
	}
}

// Router returns the thread's frame router.
func (o *ORB) Router() *Router { return o.r }

func (o *ORB) rank() int {
	if o.comm == nil {
		return 0
	}
	return o.comm.Rank()
}

func (o *ORB) size() int {
	if o.comm == nil {
		return 1
	}
	return o.comm.Size()
}

// pendingReq is the client side's tracking record of one invocation. It is
// the ORB's: the owning thread takes it from a bounded free list at issue and
// hands it back once it has won the claim on the call and resolved it
// (record/recycle), so a steady stream of calls allocates none. What the
// caller may keep — the cell, which holds the result values it resolves to —
// the record only points at. It holds what every call uses; what only some
// calls need hangs off outs and timed.
type pendingReq struct {
	// call is where the invocation resolves: the caller's cell for InvokeNB,
	// own for a blocking Invoke (which copies the results out before it
	// recycles the record).
	call *future.Cell
	op   *Operation
	// b is the binding the call was issued on: its id and sequence number
	// name the call in a CancelRequest, its server's thread-0 address keys the
	// in-flight ledger and takes cancellations and resends.
	b *Binding
	// reply is the reply message once it has arrived (reply.Reply is the
	// decoded header). It is the ORB's to recycle: maybeComplete releases it
	// after winning the claim, at which point nothing else can reach it.
	reply *Msg
	id    uint32 // the current attempt's request ID, its key in pending
	seqNo uint32
	opIdx uint32 // op's index in b's operation table, for its orb_slo entry

	outs  *distOuts   // nil unless op has distributed out parameters
	timed *timedState // nil unless the binding had a deadline set at issue time

	// Trace state. trace/span are zero when tracing was off at issue time;
	// trace is the invocation's TraceID (stable across retries) and span the
	// stub.invoke root span under which every attempt nests. issuedNS is the
	// root span's start, on the ORB's clock — always captured, since the
	// latency histogram wants it whether or not tracing is on.
	trace    uint64
	span     uint64
	issuedNS int64

	own future.Cell
}

// maxFreeRecords bounds an ORB's free list, so a deep burst of calls does not
// keep its high-water mark of records for the rest of the process.
const maxFreeRecords = 64

// record returns a zeroed call record. Owning thread only.
func (o *ORB) record() *pendingReq {
	n := len(o.free)
	if n == 0 {
		return new(pendingReq)
	}
	p := o.free[n-1]
	o.free[n-1] = nil
	o.free = o.free[:n-1]
	*p = pendingReq{}
	return p
}

// recycle takes back the record of a finished call. Only the owning thread
// calls it, after winning the claim on the call and resolving it — so no
// pending entry, backoff slot, late reply or segment reaches p any more —
// and only when the caller holds nothing inside p: a blocking Invoke after
// copying its results out, or a non-blocking call's resolver (its cell is
// the caller's own). A record a Cancel claimed is left to the GC: Cancel may
// run on any goroutine. Under the race detector the record is poisoned, so a
// use after recycling reads poison instead of a stranger's call.
func (o *ORB) recycle(p *pendingReq) {
	*p = pendingReq{}
	poisonRecord(p)
	if len(o.free) < maxFreeRecords {
		o.free = append(o.free, p)
	}
}

// finish resolves a call the owning thread has claimed and, for a
// non-blocking one, recycles its record — every owning-thread resolution
// path ends here. A blocking Invoke recycles its own record once it has
// copied the results out.
func (o *ORB) finish(p *pendingReq, vals []any, err error) {
	o.resolve(p, vals, err)
	if p.handedOut() {
		o.recycle(p)
	}
}

// distOuts is an invocation's distributed out-argument bookkeeping, keyed by
// parameter index.
type distOuts struct {
	holders map[int]dseq.Distributed
	tmpls   map[int]dist.Template
	need    map[int]int
	got     map[int]int
	buf     []*pgiop.ArgStream // segments that arrived before the reply
	// gotBy counts out-segment elements by sending server rank, for
	// attributing a partial transfer to the ranks that went silent.
	gotBy map[int]int
}

// timedState is the deadline and retry state of an invocation issued with a
// deadline.
type timedState struct {
	deadline   float64 // per-attempt budget, seconds
	deadlineAt float64 // ORB-clock instant the current attempt expires; 0 while parked
	resendAt   float64 // when parked in o.backoff: instant to re-issue
	attempt    int     // attempts issued so far (first send = 1)
	policy     RetryPolicy
	rng        *rand.Rand     // per-request jitter stream (nil unless retryable)
	req        *pgiop.Request // retained for re-encoding resends (nil unless retryable)
}

// handedOut reports whether the call resolves a cell its caller holds
// (InvokeNB) rather than the record's own (a blocking Invoke).
func (p *pendingReq) handedOut() bool { return p.call != &p.own }

// server0 is the thread-0 address of the call's server.
func (p *pendingReq) server0() string { return p.b.ior.Addrs[0] }

// armed reports whether a deadline is running for the current attempt.
func (p *pendingReq) armed() bool { return p.timed != nil && p.timed.deadlineAt > 0 }

// retryable reports whether this request may be re-issued (see RetryPolicy).
func (p *pendingReq) retryable() bool { return p.timed != nil && p.timed.req != nil }

// canRetry reports whether the request is retryable and has attempts left.
func (p *pendingReq) canRetry() bool {
	return p.retryable() && p.timed.attempt < p.timed.policy.attempts()
}

// resolve finishes a claimed (or never-registered) request: observes the
// latency histogram, records the stub.invoke root span when the invocation
// was traced, and resolves the cell. Every resolution path of a two-way
// request funnels through here *after* winning the claim, which is also what
// keeps late replies span-silent: by the time a straggler arrives the claim
// fails, no resolver runs, and nothing records.
func (o *ORB) resolve(p *pendingReq, vals []any, err error) {
	end := o.w.ElapsedNS()
	sec := float64(end-p.issuedNS) / 1e9
	orbLatency.Observe(sec)
	p.b.slos[p.opIdx].Observe(end, sec, err != nil)
	if p.trace != 0 {
		// Mark before recording the root: the root span completes the trace,
		// and the retention decision must already see the error.
		if err != nil {
			obs.DefaultTracer.MarkTrace(p.trace, obs.RetainError)
		}
		obs.DefaultTracer.Record(obs.Span{
			Trace: p.trace, ID: p.span, Layer: obs.LayerStub,
			Name: "stub.invoke", Op: p.op.Name, Rank: int32(o.rank()),
			Start: p.issuedNS, End: end,
		})
	}
	p.call.Resolve(vals, err)
}

// claim atomically removes p's pending entry, reporting false when another
// path (cancel, timeout sweep, transport failure) already claimed it. Every
// resolution path claims before resolving, so a cell is resolved exactly
// once even when a late reply races a timeout or cancel; and because request
// IDs are never reused, a reply to a superseded attempt finds nothing to
// claim and is discarded.
func (o *ORB) claim(p *pendingReq) bool {
	o.mu.Lock()
	won := o.pending[p.id] == p
	if won {
		delete(o.pending, p.id)
		o.untrackLocked(p)
	}
	o.mu.Unlock()
	return won
}

// trackLocked and untrackLocked maintain the per-connection in-flight
// ledger; callers hold o.mu and have just added/removed p in o.pending.
// trackLocked returns the new depth for the histogram.
func (o *ORB) trackLocked(p *pendingReq) int {
	if p.armed() {
		o.timed++
	}
	*p.b.depth++
	return *p.b.depth
}

func (o *ORB) untrackLocked(p *pendingReq) {
	if p.armed() {
		o.timed--
	}
	*p.b.depth--
}

// depth returns the in-flight counter of ior's server, keyed by its thread-0
// address, creating it on first use. A counter lives as long as the ORB:
// bindings hold it.
func (o *ORB) depth(ior IOR) *int {
	var server0 string
	if len(ior.Addrs) > 0 {
		server0 = ior.Addrs[0]
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.inflight[server0]
	if n == nil {
		n = new(int)
		o.inflight[server0] = n
	}
	return n
}

// Inflight reports the number of pending two-way requests currently issued
// to the given server thread-0 address — the pipeline depth on that
// connection as seen from this ORB.
func (o *ORB) Inflight(server0 string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n := o.inflight[server0]; n != nil {
		return *n
	}
	return 0
}

// Invoke performs a blocking invocation on a binding: it returns when the
// request has been fully processed by the server. Results are ordered
// [return value (if non-void), out/inout parameters in declaration order];
// distributed out values are the holders passed in args. The result slice
// is the caller's to keep.
func (b *Binding) Invoke(op string, args []any) ([]any, error) {
	opIdx, opDef, err := b.operation(op, args)
	if err != nil {
		return nil, err
	}
	if b.local != nil && !opDef.HasDistributed() {
		return b.callLocal(opDef, args)
	}
	// The cell is the record's own: nobody but this call can reach it, so it
	// goes back with the record once the results are copied.
	o := b.orb
	p := o.record()
	p.call = &p.own
	if err := b.issue(p, opIdx, opDef, args); err != nil {
		return nil, err
	}
	vals, err := p.own.Values()
	if n := len(vals); n > 0 && n <= future.InlineSlots {
		// The values sit in the record's cell: copy them out. A larger result
		// set was decoded into a fresh slice that is already the caller's.
		vals = append(make([]any, 0, n), vals...)
	}
	o.recycle(p)
	return vals, err
}

// InvokeNB performs a non-blocking invocation: it returns immediately after
// the request has been sent, with a cell whose futures resolve when the
// reply (and all distributed out segments) arrive.
//
// args has one entry per parameter of the operation, in declaration order:
//
//	in/inout non-distributed — the Go value (per the typecode mapping)
//	in        distributed    — a dseq.Distributed with the argument data
//	out       non-distributed — ignored (pass nil)
//	out       distributed    — a dseq.Distributed holder; pass the desired
//	                           client-side layout via SetOutDist or rely on
//	                           the parameter's default
//
// For an SPMD binding the call is collective: every client thread must
// invoke with its own portion of each distributed argument.
func (b *Binding) InvokeNB(op string, args []any) (*future.Cell, error) {
	opIdx, opDef, err := b.operation(op, args)
	if err != nil {
		return nil, err
	}
	// Co-located direct call: bypass transport and marshaling entirely.
	if b.local != nil && !opDef.HasDistributed() {
		cell := future.NewCell()
		cell.Resolve(b.callLocal(opDef, args))
		return cell, nil
	}
	// The caller's cell is all this call allocates; the record is the ORB's.
	cell := new(future.Cell)
	p := b.orb.record()
	p.call = cell
	if err := b.issue(p, opIdx, opDef, args); err != nil {
		return nil, err
	}
	return cell, nil
}

// operation looks up and checks an invocation of op with args.
func (b *Binding) operation(op string, args []any) (int, *Operation, error) {
	opIdx := b.iface.OpIndex(op)
	if opIdx < 0 {
		return 0, nil, fmt.Errorf("core: interface %s has no operation %s", b.iface.Name, op)
	}
	opDef := &b.iface.Ops[opIdx]
	if len(args) != len(opDef.Params) {
		return 0, nil, fmt.Errorf("core: %s.%s takes %d arguments, got %d", b.iface.Name, op, len(opDef.Params), len(args))
	}
	if opDef.HasDistributed() && !b.ior.SPMD {
		return 0, nil, fmt.Errorf("core: %s.%s uses distributed arguments on a non-SPMD object", b.iface.Name, op)
	}
	return opIdx, opDef, nil
}

// issue sends one invocation tracked by the fresh record p, whose call is
// already set. On success the call is registered (two-way) or resolved
// (oneway) and p belongs to the resolution machinery; on error the call was
// never handed out and p is left to the GC.
func (b *Binding) issue(p *pendingReq, opIdx int, opDef *Operation, args []any) error {
	o := b.orb
	op := opDef.Name
	b.opSLO(opIdx) // resolve reads the entry through p.b
	p.op, p.b, p.seqNo, p.opIdx = opDef, b, b.seq, uint32(opIdx)
	if b.deadline > 0 && !opDef.Oneway {
		p.timed = &timedState{deadline: b.deadline, attempt: 1, policy: b.retry}
	}
	cell := p.call
	cell.Init()

	req := &pgiop.Request{
		BindingID:  b.id,
		SeqNo:      b.seq,
		ClientRank: int32(o.rank()),
		ClientSize: int32(o.size()),
		ReplyAddr:  string(o.r.Addr()),
		ObjectKey:  b.ior.Key,
		Operation:  op,
		Oneway:     opDef.Oneway,
		DeadlineMS: deadlineMS(b.deadline),
	}
	b.seq++
	orbRequests.Inc()
	p.issuedNS = o.w.ElapsedNS()
	if obs.DefaultTracer.Enabled() {
		// Root trace context for this invocation: the TraceID every rank and
		// layer will share, the stub span every attempt nests under, and the
		// first attempt's send span (fresh per retry — see resend). A group
		// binding pins one TraceID across member attempts (forceTrace), so a
		// failover reads as a single timeline in the flight recorder.
		if b.forceTrace != 0 {
			p.trace = b.forceTrace
		} else {
			p.trace = obs.NewID()
		}
		p.span = obs.NewID()
		req.TraceID = p.trace
		req.SpanID = obs.NewID()
	}

	// Marshal inline (non-distributed) in/inout arguments into a pooled
	// encoder: req.Body aliases its buffer, which stays valid through the
	// vectored send below and is recycled when issue returns.
	enc := cdr.GetEncoder(256)
	defer enc.Release()
	type distIn struct {
		param  int
		holder dseq.Distributed
		server dist.Layout
	}
	var distIns []distIn
	for i := range opDef.Params {
		prm := &opDef.Params[i]
		switch {
		case prm.Distributed() && prm.Mode == In:
			holder, ok := args[i].(dseq.Distributed)
			if !ok {
				return fmt.Errorf("core: %s argument %d must be a distributed sequence, got %T", op, i, args[i])
			}
			n := holder.GlobalLen()
			if bound := prm.Type.Bound; bound > 0 && n > bound {
				return fmt.Errorf("core: %s argument %d length %d exceeds bound %d", op, i, n, bound)
			}
			sl := prm.ServerDist.Layout(n, b.ior.ServerSize)
			req.DistIns = append(req.DistIns, pgiop.DistInSpec{
				Param: int32(i), N: int32(n), Layout: holder.DLayout(),
			})
			distIns = append(distIns, distIn{param: i, holder: holder, server: sl})
		case prm.Distributed() && prm.Mode == Out:
			holder, ok := args[i].(dseq.Distributed)
			if !ok {
				return fmt.Errorf("core: %s out argument %d must be a distributed holder, got %T", op, i, args[i])
			}
			tmpl := b.outDist(op, i, prm)
			req.DistOuts = append(req.DistOuts, pgiop.DistOutSpec{Param: int32(i), Tmpl: tmpl})
			if p.outs == nil {
				p.outs = &distOuts{
					holders: map[int]dseq.Distributed{},
					tmpls:   map[int]dist.Template{},
					need:    map[int]int{},
					got:     map[int]int{},
				}
			}
			p.outs.holders[i] = holder
			p.outs.tmpls[i] = tmpl
		case prm.Mode == In || prm.Mode == InOut:
			if err := typecode.Marshal(enc, prm.Type, args[i]); err != nil {
				return fmt.Errorf("core: %s argument %d (%s): %w", op, i, prm.Name, err)
			}
		}
	}
	req.Body = enc.Bytes()

	// Retry eligibility (see RetryPolicy): when armed, the request is
	// retained for re-encoding — with the Body copied out of the pooled
	// encoder, which is recycled when issue returns.
	if t := p.timed; t != nil {
		if b.retry.attempts() > 1 && opDef.Idempotent && len(req.DistIns) == 0 && !b.spmd {
			kept := *req
			kept.Body = append([]byte(nil), req.Body...)
			t.req = &kept
			t.rng = rand.New(rand.NewSource(int64(b.retry.JitterSeed) + int64(b.seq)))
		}
		t.deadlineAt = o.w.Elapsed() + t.deadline
	}
	o.mu.Lock()
	req.ReqID = o.newReqIDLocked()
	p.id = req.ReqID
	depth := 0
	if !opDef.Oneway {
		o.pending[req.ReqID] = p
		depth = o.trackLocked(p)
	}
	o.mu.Unlock()
	if depth > 0 {
		orbPipelineDepth.Observe(float64(depth))
	}

	// Header goes to server thread 0 (the collectivity point). The request
	// header and the marshaled body travel as one vectored frame — the body
	// is never copied into a framing buffer.
	err := o.sendRequest(nexus.Addr(b.ior.Addrs[0]), req, p, false)
	if err != nil {
		if o.claim(p) && p.retryable() {
			// A failed send is the easiest loss to retry: park the request
			// for backoff instead of failing the invocation.
			o.park(p)
			cell.SetPump(o.driver)
			return nil
		}
		return fmt.Errorf("core: %s: %w", op, err)
	}

	// Distributed in arguments: ship this thread's segments directly to
	// the server threads that own them — in parallel across client
	// threads, the ORB optimization of [KG97].
	for _, di := range distIns {
		if err := o.sendSegments(b, req, di.param, di.holder, di.server); err != nil {
			o.claim(p)
			return err
		}
	}

	if opDef.Oneway {
		// Never registered, so already finished: nothing but the caller
		// can reach p.
		cell.Resolve(nil, nil)
		if p.handedOut() {
			o.recycle(p)
		}
		return nil
	}
	cell.SetPump(o.driver)
	return nil
}

// newReqIDLocked returns the next request ID; callers hold o.mu. ID 0 is
// skipped when the counter wraps, so no call ever answers to it: it is what
// Cancel's wake-up frame replies to.
func (o *ORB) newReqIDLocked() uint32 {
	if o.nextReq++; o.nextReq == 0 {
		o.nextReq++
	}
	return o.nextReq
}

// sendRequest encodes and ships one request attempt as a vectored frame.
// When the invocation is traced it records the per-attempt ORB send span
// (ID = req.SpanID, the parent the server nests under) with the pgiop
// encode span inside it.
func (o *ORB) sendRequest(to nexus.Addr, req *pgiop.Request, p *pendingReq, resend bool) error {
	traced := p.trace != 0
	var sendStart, encStart, encEnd int64
	if traced {
		sendStart = o.w.ElapsedNS()
	}
	hdr := cdr.GetEncoder(128)
	if traced {
		encStart = o.w.ElapsedNS()
	}
	pgiop.AppendRequest(hdr, req)
	if traced {
		encEnd = o.w.ElapsedNS()
	}
	err := o.r.SendV2(&o.sendIov, to, hdr.Bytes(), req.Body)
	hdr.Release()
	if traced {
		end := o.w.ElapsedNS()
		name := "orb.send"
		if resend {
			name = "orb.resend"
		}
		rank := int32(o.rank())
		obs.DefaultTracer.Record(obs.Span{
			Trace: p.trace, ID: req.SpanID, Parent: p.span,
			Layer: obs.LayerORB, Name: name, Op: p.op.Name, Rank: rank,
			Start: sendStart, End: end,
		})
		obs.DefaultTracer.Record(obs.Span{
			Trace: p.trace, ID: obs.NewID(), Parent: req.SpanID,
			Layer: obs.LayerPGIOP, Name: "pgiop.encode", Rank: rank,
			Start: encStart, End: encEnd,
		})
	}
	return err
}

// deadlineMS converts a seconds deadline to the wire's millisecond field.
func deadlineMS(seconds float64) uint32 {
	if seconds <= 0 {
		return 0
	}
	ms := seconds * 1000
	if ms < 1 {
		return 1
	}
	if ms > float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// park schedules a claimed retryable request for re-issue after the
// policy's exponential backoff.
func (o *ORB) park(p *pendingReq) {
	o.parkAfter(p, p.timed.policy.backoff(p.timed.attempt, p.timed.rng))
}

// parkAfter schedules a claimed retryable request for re-issue after an
// explicit delay — the server's shed hint when one arrived, the policy
// backoff otherwise.
func (o *ORB) parkAfter(p *pendingReq, delay float64) {
	p.timed.resendAt = o.w.Elapsed() + delay
	p.timed.deadlineAt = 0
	o.mu.Lock()
	o.backoff = append(o.backoff, p)
	o.mu.Unlock()
}

// ErrCancelled resolves futures of invocations withdrawn with Cancel.
var ErrCancelled = errors.New("core: request cancelled")

// Cancel withdraws a pending non-blocking invocation: a CancelRequest is
// sent to the server (which drops the request if it has not been
// dispatched yet) and the invocation's futures resolve with ErrCancelled.
// It reports whether the cell belonged to a pending invocation of this ORB.
// It may be called from any goroutine, so the record it claims is left to the
// GC, never recycled. Reading pr.call under o.mu is safe: a record's call is
// only written while the record is in neither pending nor backoff.
func (o *ORB) Cancel(cell *future.Cell) bool {
	o.mu.Lock()
	var p *pendingReq
	for id, pr := range o.pending {
		if pr.call == cell {
			p = pr
			delete(o.pending, id)
			o.untrackLocked(p)
			break
		}
	}
	if p == nil {
		// The invocation may be parked awaiting a retry rather than in
		// flight; withdrawing it then is purely local.
		for i, pr := range o.backoff {
			if pr.call == cell {
				p = pr
				o.backoff = slices.Delete(o.backoff, i, i+1)
				break
			}
		}
	}
	o.mu.Unlock()
	if p == nil {
		return false
	}
	msg := pgiop.EncodeCancelRequest(&pgiop.CancelRequest{BindingID: p.b.id, SeqNo: p.seqNo})
	_ = o.r.Send(nexus.Addr(p.server0()), msg) // best effort
	orbCancels.Inc()
	o.resolve(p, nil, ErrCancelled)
	// The owning thread may be parked in a blocking receive on this cell's
	// behalf, and no frame may ever come for it: post one it discards, so
	// its pump returns and its wait sees the cell resolved.
	_ = o.r.Send(o.r.Addr(), wakeFrame) // best effort, like the notice above
	return true
}

// wakeFrame is a reply to request ID 0, which is never issued, so the client
// path drops it on arrival.
var wakeFrame = pgiop.EncodeReply(&pgiop.Reply{})

// sendSegments ships one distributed in-argument's local elements to the
// owning server threads.
func (o *ORB) sendSegments(b *Binding, req *pgiop.Request, param int, holder dseq.Distributed, server dist.Layout) error {
	return SendSegments(o.TransferPolicy, o.r, req, param, pgiop.DirIn, holder, o.rank(), server,
		func(thread int) (nexus.Addr, uint32) { return nexus.Addr(b.ior.Addrs[thread]), 0 })
}

// pump processes incoming client-bound messages on the client thread — the
// progress function behind future resolution — waiting for progress at most
// until the instant until. With no deadline armed and no limit it is the
// transport's blocking receive; otherwise it alternates non-blocking
// receives with the timeout sweep, parked on o.w until a frame arrives or
// until the earlier of until and the sweep's next due instant. A poll
// (-Inf) reads the transport; a wait takes only what has been delivered,
// because the wait's own read is the probe (DESIGN.md §12), unless it is
// due at once.
func (o *ORB) pump(until float64) {
	poll := math.IsInf(until, -1)
	for {
		timed := o.hasTimed()
		if !timed && math.IsInf(until, 1) {
			// No deadline armed: the original blocking receive.
			m, ok, err := o.r.RecvClient(true)
			if err != nil {
				o.failAll(err)
				return
			}
			if ok {
				o.handleMsg(m)
			}
			return
		}
		// A round that waits takes only what has been delivered, as its
		// wait's read probes the socket. A poll, and a round whose wait would
		// end at once, read the socket first: a reply already there is taken
		// before its deadline expires or its resend goes out.
		m, ok, err := o.r.PollClient(!poll && !o.dueNow(until, timed))
		if err != nil {
			o.failAll(err)
			return
		}
		if ok {
			o.handleMsg(m)
			return
		}
		next := math.Inf(1)
		if timed {
			var progress bool
			if progress, next = o.sweep(); progress {
				return
			}
		}
		at := min(next, until)
		if math.IsInf(at, -1) || at <= o.w.Elapsed() { // a poll reads no clock
			return
		}
		if !math.IsInf(at, 1) { // else the last deadline went meanwhile: block above
			o.waitUntil(at)
		}
	}
}

// hasTimed reports whether any in-flight request carries a deadline or any
// retry is parked for re-issue.
func (o *ORB) hasTimed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.timed > 0 || len(o.backoff) > 0
}

// dueNow reports whether a wait until the instant until would end at once:
// until has passed or, with timed, a deadline or a resend is due.
func (o *ORB) dueNow(until float64, timed bool) bool {
	now := o.w.Elapsed()
	if until <= now {
		return true
	}
	if !timed {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.pending {
		if p.armed() && now >= p.timed.deadlineAt {
			return true
		}
	}
	for _, p := range o.backoff {
		if now >= p.timed.resendAt {
			return true
		}
	}
	return false
}

// sweep fires expired deadlines and due resends, reporting whether it made
// progress (resolved or re-issued at least one request) and when the next
// is due (+Inf for none). Actions are collected under the lock and performed
// outside it, since resolving a cell or sending a frame must not hold o.mu.
func (o *ORB) sweep() (progress bool, next float64) {
	now := o.w.Elapsed()
	next = math.Inf(1)
	var expired, due []*pendingReq
	o.mu.Lock()
	for id, p := range o.pending {
		if !p.armed() {
			continue
		}
		if now >= p.timed.deadlineAt {
			// Claim under this same lock hold: a late reply arriving after
			// the sweep finds no entry and is discarded.
			delete(o.pending, id)
			o.untrackLocked(p)
			expired = append(expired, p)
		} else {
			next = min(next, p.timed.deadlineAt)
		}
	}
	if len(o.backoff) > 0 {
		kept := o.backoff[:0]
		for _, p := range o.backoff {
			if now >= p.timed.resendAt {
				due = append(due, p)
			} else {
				kept = append(kept, p)
				next = min(next, p.timed.resendAt)
			}
		}
		clear(o.backoff[len(kept):]) // no stale pointer to a record that may be recycled
		o.backoff = kept
	}
	o.mu.Unlock()

	for _, p := range expired {
		orbTimeouts.Inc()
		if p.canRetry() {
			o.park(p)
		} else {
			o.finish(p, nil, o.deadlineError(p))
		}
	}
	for _, p := range due {
		o.resend(p)
	}
	return len(expired)+len(due) > 0, next
}

// resend re-issues a parked retryable request as a fresh attempt with a
// fresh request ID, so any straggler reply or segment addressed to the old
// ID can never satisfy the new attempt.
func (o *ORB) resend(p *pendingReq) {
	t := p.timed
	p.reply = nil
	if d := p.outs; d != nil {
		d.buf = nil
		for k := range d.got {
			delete(d.got, k)
		}
		for k := range d.gotBy {
			delete(d.gotBy, k)
		}
	}
	t.resendAt = 0
	t.attempt++
	t.deadlineAt = o.w.Elapsed() + t.deadline
	o.mu.Lock()
	t.req.ReqID = o.newReqIDLocked()
	p.id = t.req.ReqID
	o.pending[p.id] = p
	depth := o.trackLocked(p)
	o.mu.Unlock()
	orbPipelineDepth.Observe(float64(depth))
	orbRetries.Inc()
	if p.trace != 0 {
		// Same TraceID, fresh per-attempt SpanID: a straggler span from the
		// superseded attempt can never masquerade as this one's.
		t.req.SpanID = obs.NewID()
		obs.DefaultTracer.MarkTrace(p.trace, obs.RetainRetry)
	}

	err := o.sendRequest(nexus.Addr(p.server0()), t.req, p, true)
	if err != nil && o.claim(p) {
		if p.canRetry() {
			o.park(p)
		} else {
			o.finish(p, nil, &InvokeError{
				Op: p.op.Name, Attempts: t.attempt, Stage: "reply",
				MissingRanks: []int{0}, Err: err,
			})
		}
	}
}

// deadlineError builds the rank-attributed failure for an expired request
// (which was armed, so p.timed is set).
// Before the reply, server thread 0 (the collectivity point) is the silent
// party; after it, the exchange schedule says which server ranks still owed
// this thread out-argument elements.
func (o *ORB) deadlineError(p *pendingReq) error {
	ie := &InvokeError{Op: p.op.Name, Attempts: p.timed.attempt, Err: ErrDeadline}
	if p.reply == nil {
		ie.Stage = "reply"
		ie.MissingRanks = []int{0}
		return ie
	}
	ie.Stage = "out-segments"
	d := p.outs
	if d == nil {
		return ie // a reply with nothing left to wait for cannot have expired
	}
	serverSize := p.b.ior.ServerSize
	// gotBy aggregates received elements by sending rank across all out
	// parameters, so the expectation is aggregated the same way: the total
	// each server rank owes this thread over every distributed out
	// parameter of the reply.
	expect := map[int]int{}
	me := o.rank()
	for param := range d.need {
		n, ok := replyOutLen(p.reply.Reply, param)
		if !ok {
			continue
		}
		prm := &p.op.Params[param]
		sched := dist.Cached(prm.ServerDist.Layout(n, serverSize), d.tmpls[param].Layout(n, o.size()))
		for s := 0; s < serverSize; s++ {
			for _, m := range sched.From(s) {
				if m.To == me {
					expect[s] += m.Elements()
				}
			}
		}
	}
	missing := map[int]bool{}
	for s, want := range expect {
		if want > d.gotBy[s] {
			missing[s] = true
		}
	}
	// An empty set with incomplete counts means a truncated or corrupt
	// segment rather than a silent rank; MissingRanks is then empty.
	ie.MissingRanks = sortedRanks(missing)
	return ie
}

func replyOutLen(r *pgiop.Reply, param int) (int, bool) {
	for _, ol := range r.OutLens {
		if int(ol.Param) == param {
			return int(ol.N), true
		}
	}
	return 0, false
}

// failAll resolves every pending invocation with the transport error —
// connection loss must not hang waiters.
func (o *ORB) failAll(err error) {
	o.mu.Lock()
	ps := o.pending
	o.pending = map[uint32]*pendingReq{}
	for _, n := range o.inflight {
		*n = 0
	}
	o.timed = 0
	parked := o.backoff
	o.backoff = nil
	o.mu.Unlock()
	for _, p := range ps {
		orbTransportFails.Inc()
		o.finish(p, nil, fmt.Errorf("core: transport failed: %w", err))
	}
	for _, p := range parked {
		orbTransportFails.Inc()
		o.finish(p, nil, fmt.Errorf("core: transport failed: %w", err))
	}
}

func (o *ORB) handleMsg(m *Msg) {
	switch m.Type {
	case pgiop.MsgReply:
		o.handleReply(m)
	case pgiop.MsgArgStream:
		o.handleSegment(m.Arg)
	}
}

func (o *ORB) handleReply(m *Msg) {
	r := m.Reply
	o.mu.Lock()
	p := o.pending[r.ReqID]
	o.mu.Unlock()
	if p == nil || p.reply != nil {
		return // cancelled, duplicate, or unknown
	}
	if r.Status == pgiop.StatusOverloaded {
		// Admission shed: the server refused to queue the request and hinted
		// when to retry. A retryable request parks for exactly that hint
		// (backing off per the server's own estimate beats re-guessing);
		// otherwise the shed surfaces as a ShedError for the caller — a
		// group binding fails it over to another member.
		orbSheds.Inc()
		if !o.claim(p) {
			return // timed out or cancelled first
		}
		if p.trace != 0 {
			obs.DefaultTracer.MarkTrace(p.trace, obs.RetainShed)
		}
		hint := float64(r.RetryAfterMS) / 1000
		if p.canRetry() {
			if hint > 0 {
				o.parkAfter(p, hint)
			} else {
				o.park(p)
			}
			return
		}
		o.finish(p, nil, &ShedError{Op: p.op.Name, RetryAfter: hint})
		return
	}
	if r.Status != pgiop.StatusOK {
		o.fail(p, fmt.Errorf("core: server exception: %s", r.Error))
		return
	}
	p.reply = m
	// The reply announces each distributed out argument's length; shape
	// the holders and account for the elements this thread expects.
	for _, ol := range r.OutLens {
		param := int(ol.Param)
		var holder dseq.Distributed
		if p.outs != nil {
			holder = p.outs.holders[param]
		}
		if holder == nil {
			o.fail(p, fmt.Errorf("core: reply announces unknown out parameter %d", param))
			return
		}
		if ol.Layout.P != p.b.ior.ServerSize {
			o.fail(p, fmt.Errorf("core: reply lays out parameter %d over %d server threads, not %d", param, ol.Layout.P, p.b.ior.ServerSize))
			return
		}
		layout := p.outs.tmpls[param].Layout(int(ol.N), o.size())
		holder.Reshape(layout)
		p.outs.need[param] = layout.Count(o.rank())
	}
	// Apply segments that raced ahead of the reply.
	if d := p.outs; d != nil {
		buf := d.buf
		d.buf = nil
		for _, a := range buf {
			if !o.applyOut(p, a) {
				return
			}
		}
	}
	o.maybeComplete(p)
}

func (o *ORB) handleSegment(a *pgiop.ArgStream) {
	if a.Dir != pgiop.DirOut {
		return // in-direction segments are a server-side concern
	}
	o.mu.Lock()
	p := o.pending[a.ReqID]
	o.mu.Unlock()
	if p == nil || p.outs == nil {
		return
	}
	if p.reply == nil {
		p.outs.buf = append(p.outs.buf, a)
		return
	}
	if o.applyOut(p, a) {
		o.maybeComplete(p)
	}
}

// applyOut puts one out-argument segment of p's call into its holder through
// ApplySegment, bounded by the elements the call is still owed, and counts
// them by sender. A segment that does not fit fails the call; the return
// reports whether the call is still pending.
func (o *ORB) applyOut(p *pendingReq, a *pgiop.ArgStream) bool {
	param := int(a.Param)
	d := p.outs
	holder := d.holders[param]
	if holder == nil {
		return true
	}
	n, err := ApplySegment(holder, a, d.need[param]-d.got[param], &o.runScratch)
	if err != nil {
		o.fail(p, fmt.Errorf("core: out parameter %d: %w", param, err))
		return false
	}
	d.got[param] += n
	if d.gotBy == nil {
		d.gotBy = map[int]int{}
	}
	d.gotBy[int(a.Sender)] += n
	return true
}

// fail resolves the call with err, unless another path claimed it first.
func (o *ORB) fail(p *pendingReq, err error) {
	if o.claim(p) {
		o.finish(p, nil, err)
	}
}

// maybeComplete resolves the invocation once the reply and all expected
// out-argument elements have arrived.
func (o *ORB) maybeComplete(p *pendingReq) {
	if p.reply == nil {
		return
	}
	if d := p.outs; d != nil {
		for param, need := range d.need {
			if d.got[param] != need {
				return
			}
		}
	}
	if !o.claim(p) {
		return // a racing cancel or timeout won; discard the late result
	}
	// The claim is won, so no sweep, cancel or resend will look at p.reply
	// again, and nothing but this thread writes the call's cell until it
	// resolves. Detach the reply and hand it back after the record: the
	// values decoded from it alias neither. A reply that does not decode is
	// left to the GC.
	m := p.reply
	p.reply = nil
	vals, err := o.results(p, m)
	o.finish(p, vals, err)
	if err == nil {
		m.Release()
	}
}

// results decodes a reply's inline results straight into the call's cell:
// return value then non-distributed out/inout parameters, in declaration
// order. A non-blocking call whose first result is a scalar keeps it
// unboxed, in the cell's word, for the caller's typed future to read; a
// blocking call hands out a []any anyway, so its cell takes every result
// boxed. Values may alias a reply frame the GC owns (zero-copy, the bulk
// case); they are copied out of a pooled one.
func (o *ORB) results(p *pendingReq, m *Msg) ([]any, error) {
	var d cdr.Decoder
	d.Reset(m.Reply.Body)
	d.SetBorrow(!m.FramePooled())
	vals := p.call.Slots(resultCount(p.op))[:0]
	word := p.handedOut()
	if r := p.op.Result; r != nil {
		v, err := decodeResult(p.call, &d, r, word)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt return value: %w", err)
		}
		vals = append(vals, v)
		word = false
	}
	for i := range p.op.Params {
		prm := &p.op.Params[i]
		if prm.Mode == In {
			continue
		}
		if prm.Distributed() {
			vals = append(vals, p.outs.holders[i])
		} else {
			v, err := decodeResult(p.call, &d, prm.Type, word)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt out value %s: %w", prm.Name, err)
			}
			vals = append(vals, v)
		}
		word = false
	}
	return vals, nil
}

// decodeResult decodes one result of type tc: into c's word when word is
// set and tc is a scalar, leaving the result's slot empty, boxed otherwise.
func decodeResult(c *future.Cell, d *cdr.Decoder, tc *typecode.TypeCode, word bool) (any, error) {
	if !word || !tc.Kind.Scalar() {
		return typecode.Unmarshal(d, tc)
	}
	w, err := typecode.UnmarshalWord(d, tc)
	if err == nil {
		c.SetWord(tc.Kind, w)
	}
	return nil, err
}

// Comm exposes the ORB's run-time-system communicator (nil for single
// clients). Generated stubs use it to build distributed argument holders.
func (o *ORB) Comm() rts.Comm { return o.comm }

// ORB returns the binding's owning ORB.
func (b *Binding) ORB() *ORB { return b.orb }
