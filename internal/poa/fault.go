package poa

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pardis/internal/dist"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
)

// Fault is the structured failure that deactivated an adapter: which
// computing-thread rank went silent (-1 when the cause carries no rank),
// during which protocol phase, and the underlying error. POA.Fault returns
// one after a peer death or agreement breakdown; test with errors.As.
type Fault struct {
	Rank  int    // implicated server computing-thread rank, -1 unknown
	Phase string // "agreement", "collect", "collect-agree", "decode"
	Err   error
}

func (f *Fault) Error() string {
	return fmt.Sprintf("poa: fault in %s phase: rank %d: %v", f.Phase, f.Rank, f.Err)
}

func (f *Fault) Unwrap() error { return f.Err }

// faultAbort records a rank-attributed collective failure, deactivates the
// adapter, tells the sibling computing threads (whose own collectives may
// have completed — a Bcast leaf's death is invisible to the root), and
// flushes queued invocations with exceptions so clients are not left to
// their deadlines for requests this server will never dispatch.
func (p *POA) faultAbort(phase string, err error) {
	if p.fault == nil {
		poaFaults.Inc()
		f := &Fault{Rank: -1, Phase: phase, Err: err}
		var re *rts.RankError
		if errors.As(err, &re) {
			f.Rank = re.Rank
		}
		p.fault = f
		p.notifyPeers(f)
	}
	p.shutdown = true
	p.flushFaultExceptions()
}

// adoptFault installs a fault learned from a sibling thread's notice. It is
// not re-broadcast: the witness already told every peer.
func (p *POA) adoptFault(n *pgiop.FaultNotice) {
	if p.fault == nil {
		poaFaults.Inc()
		p.fault = &Fault{Rank: int(n.Rank), Phase: n.Phase, Err: errors.New(n.Reason)}
	}
	p.shutdown = true
	p.flushFaultExceptions()
}

// notifyPeers sends the fault notice to every sibling computing thread's
// router, best effort — the implicated rank (and any other casualty) simply
// won't hear it.
func (p *POA) notifyPeers(f *Fault) {
	if len(p.peers) == 0 {
		return
	}
	notice := pgiop.EncodeFaultNotice(&pgiop.FaultNotice{
		Rank: int32(f.Rank), Phase: f.Phase, Reason: f.Err.Error(),
	})
	me := string(p.r.Addr())
	for _, a := range p.peers {
		if a != me {
			_ = p.r.Send(nexus.Addr(a), notice)
		}
	}
}

// flushFaultExceptions answers every gathered-but-undispatched invocation
// with an exception naming the fault. Invocations already dispatched when
// the fault struck are past their gather entries; their clients detect the
// loss through their own invocation deadlines.
func (p *POA) flushFaultExceptions() {
	// Eager on purpose: the dispatch loop leaves what it has not taken in
	// the transport (see take), and every request that had reached the
	// adapter gets the exception, not only those it had already looked at.
	p.drain()
	if len(p.gathers) == 0 && len(p.localQ) == 0 {
		return
	}
	msg := "server fault: " + p.fault.Error()
	for k, g := range p.gathers {
		delete(p.gathers, k)
		for _, r := range g.reqs {
			if !r.Oneway {
				p.sendException(r.ReplyAddr, r.ReqID, msg)
			}
		}
	}
	p.ready = p.ready[:0]
	for _, lr := range p.localQ[p.localQHead:] {
		if req := lr.m.Req; !req.Oneway {
			p.sendException(req.ReplyAddr, req.ReqID, msg)
		}
	}
	p.localQ, p.localQHead = p.localQ[:0], 0
}

// effDeadline is the deadline (seconds) bounding this request's server-side
// blocking waits: the client's wire deadline when it set one, else the
// adapter-wide default. 0 means unbounded (the pre-deadline behavior).
func (p *POA) effDeadline(req *pgiop.Request) float64 {
	if req.DeadlineMS > 0 {
		return float64(req.DeadlineMS) / 1000
	}
	return p.CollectDeadline
}

// segTimeout builds the rank-attributed error for an argument collection
// that hit its deadline: the exchange schedule says exactly which client
// ranks still owed this thread elements.
func segTimeout(rank int, spec pgiop.DistInSpec, serverLayout dist.Layout, gotBy map[int]int, got, need int) error {
	sched := dist.Cached(spec.Layout, serverLayout)
	expect := map[int]int{}
	for s := 0; s < spec.Layout.P; s++ {
		for _, m := range sched.From(s) {
			if m.To == rank {
				expect[s] += m.Elements()
			}
		}
	}
	var missing []int
	for s := 0; s < spec.Layout.P; s++ {
		if expect[s] > gotBy[s] {
			missing = append(missing, s)
		}
	}
	return fmt.Errorf("deadline collecting argument %d: %d of %d elements; missing segments from client rank(s) %v",
		spec.Param, got, need, missing)
}

// ftAgree is the post-collection agreement of a deadlined SPMD dispatch:
// each thread contributes whether its argument collection succeeded, and
// the all-reduce (bounded by the same deadline) delivers one verdict to
// every thread — the lowest-ranked failure wins. Without it a thread whose
// collection timed out would skip the servant while its siblings entered
// it, and the servant's own collectives would hang past any deadline.
//
// The verdict wire format is [ok octet | failing rank int32].
func (p *POA) ftAgree(collectOK bool, seconds float64) (ok bool, failRank int, err error) {
	var buf [5]byte
	if collectOK {
		buf[0] = 1
	}
	binary.BigEndian.PutUint32(buf[1:], uint32(p.th.Rank()))
	res, rerr := rts.AllReduceDeadline(p.th, buf[:], ftAgreeOp, seconds)
	if rerr != nil {
		return false, -1, rerr
	}
	if len(res) != 5 {
		return false, -1, fmt.Errorf("poa: corrupt collect agreement frame of %d bytes", len(res))
	}
	return res[0] == 1, int(int32(binary.BigEndian.Uint32(res[1:]))), nil
}

// ftAgreeOp folds two collection verdicts: a failure beats a success, and
// between failures the lower rank wins (deterministic attribution).
func ftAgreeOp(acc, in []byte) []byte {
	if len(acc) != 5 || len(in) != 5 {
		return acc
	}
	accOK, inOK := acc[0] == 1, in[0] == 1
	switch {
	case accOK && !inOK:
		copy(acc, in)
	case !accOK && !inOK:
		if binary.BigEndian.Uint32(in[1:]) < binary.BigEndian.Uint32(acc[1:]) {
			copy(acc, in)
		}
	}
	return acc
}
