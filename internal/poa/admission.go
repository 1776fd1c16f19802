package poa

import (
	"pardis/internal/cdr"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
)

// shedErrorMsg is the constant exception reason of a shed reply. A constant
// — not fmt output — because the shed path runs when the server is already
// saturated and must not spend allocations describing that fact.
const shedErrorMsg = "poa: admission queue full"

// SetAdmission arms admission control for single-object dispatch: when more
// than limit accepted requests are queued or executing, further arrivals are
// refused immediately with a StatusOverloaded reply carrying retryAfter
// (seconds, rounded up to whole milliseconds; <= 0 defaults to 1ms) as the
// client's backoff hint. Oneway arrivals over the watermark are dropped.
//
// The shed happens at routing time, before any dispatch state is built, so
// an overloaded adapter answers in transport time rather than queue time —
// the graceful-degradation contract a replicated group's failover relies
// on. With a limit armed the dispatch loop takes every arrival from the
// transport at once (see take), so each is judged when it arrives, not when
// the adapter gets round to it. limit <= 0 disables admission control (the
// default). Call from the POA's owning thread, like every configuration
// method.
func (p *POA) SetAdmission(limit int, retryAfter float64) {
	p.admitLimit = limit
	ms := retryAfter * 1000
	if ms < 1 {
		ms = 1
	}
	p.shedHintMS = uint32(ms)
}

// overAdmission reports whether accepting one more single-object request
// would cross the admission watermark.
func (p *POA) overAdmission() bool {
	return p.admitLimit > 0 && int(p.admitted.Load()) >= p.admitLimit
}

// shed refuses a single-object request at the admission watermark. The
// reply is assembled from constants and POA-owned scratch — no body decode,
// no operation lookup, no dispatch context — so shedding N requests costs N
// sends and nothing else.
func (p *POA) shed(req *pgiop.Request) {
	poaSheds.Inc()
	p.shedCount.Add(1)
	// A shed may be the only thing the server ever records about this
	// request; the mark alone opens (and retains) the trace in the flight
	// recorder. One atomic load when the recorder is off.
	obs.DefaultTracer.MarkTrace(req.TraceID, obs.RetainShed)
	if req.Oneway {
		return
	}
	p.shedScratch = pgiop.Reply{
		ReqID:        req.ReqID,
		Status:       pgiop.StatusOverloaded,
		Error:        shedErrorMsg,
		RetryAfterMS: p.shedHintMS,
	}
	hdr := cdr.GetEncoder(64)
	pgiop.AppendReply(hdr, &p.shedScratch)
	_ = p.r.Send(nexus.Addr(req.ReplyAddr), hdr.Bytes())
	hdr.Release()
}

// LoadReport snapshots this adapter's load signal for a registry heartbeat:
// the p95 single-object dispatch latency (seconds, on the adapter thread's
// clock) observed so far and the number of requests the adapter has taken
// from the transport and not finished — waiting in its queue, queued to the
// pool or executing. What still waits in the endpoint's inbox is not in
// depth: without an admission limit the adapter takes a request only when it
// can dispatch it. Safe to call from any goroutine — both quantities are
// atomics — so a heartbeat loop never synchronizes with the dispatch path.
func (p *POA) LoadReport() (p95 float64, depth int) {
	return p.loadLat.Snapshot().P95, int(p.admitted.Load())
}

// ShedCount reports how many requests this adapter has refused at the
// admission watermark, distinct from the process-wide poa_shed_total so a
// harness hosting several adapters can attribute sheds per replica. Safe to
// call from any goroutine.
func (p *POA) ShedCount() uint64 {
	return p.shedCount.Load()
}

// MetricsSnapshot is the raw material of a heartbeat metrics digest: the
// single-object dispatch latency distribution, the depth as LoadReport
// defines it (taken and unfinished), and the shed count, all readable from
// any goroutine.
func (p *POA) MetricsSnapshot() (lat obs.HistogramSnapshot, depth int, sheds uint64) {
	return p.loadLat.Snapshot(), int(p.admitted.Load()), p.shedCount.Load()
}
