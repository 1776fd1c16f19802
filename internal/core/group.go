// Group bindings: one client-side reference standing for a replicated
// object group. The binding holds a resolver (normally backed by the
// registry's resolve_group) instead of a fixed IOR; invocations go to the
// resolver's preferred member, and a shed reply or an idempotent-invocation
// timeout fails the next attempt over to a different member — the paper's
// Object Repository turned from a passive lookup table into the control
// plane the replicas report load to.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"pardis/internal/obs"
)

// GroupResolver returns the group's current membership, best member first.
// The group binding calls it once per bind and again on every failover, so
// a registry-backed resolver always reflects the latest load reports and
// expiries.
type GroupResolver func() ([]IOR, error)

// GroupBinding is a binding to a replicated object group. Not collective:
// group failover is a single-client affordance (an SPMD client's collective
// invocations must fail collectively, exactly as with plain retries).
type GroupBinding struct {
	orb     *ORB
	iface   *InterfaceDef
	resolve GroupResolver

	deadline float64
	retry    RetryPolicy
	rng      *rand.Rand

	b          *Binding // current member binding (nil until first use)
	lastFailed string   // thread-0 address of the member that just failed
	failovers  int
	trace      uint64 // TraceID pinned across this invocation's member attempts
}

// BindGroup establishes a group binding over a membership resolver. Set a
// deadline before invoking — without one, a dead member hangs the
// invocation instead of failing it over (the same rule as plain retries).
func (o *ORB) BindGroup(resolve GroupResolver, iface *InterfaceDef) *GroupBinding {
	g := &GroupBinding{orb: o, iface: iface, resolve: resolve}
	g.rng = rand.New(rand.NewSource(int64(g.retry.JitterSeed)))
	return g
}

// SetDeadline bounds each per-member attempt, seconds (see
// Binding.SetDeadline). Applies from the next attempt on.
func (g *GroupBinding) SetDeadline(seconds float64) {
	g.deadline = seconds
	if g.b != nil {
		g.b.SetDeadline(seconds)
	}
}

// SetRetryPolicy bounds the cross-member attempt budget: MaxAttempts is the
// total number of members tried per invocation (not per-member resends —
// each member gets exactly one attempt, so a sick replica is left behind
// rather than hammered), and BaseBackoff/MaxBackoff/JitterSeed pace the
// delay before a post-shed failover when the server sent no hint.
func (g *GroupBinding) SetRetryPolicy(rp RetryPolicy) {
	g.retry = rp
	g.rng = rand.New(rand.NewSource(int64(rp.JitterSeed)))
}

// Failovers reports how many member switches this binding has performed.
func (g *GroupBinding) Failovers() int { return g.failovers }

// LastTrace returns the TraceID of the most recent traced invocation (0
// when tracing was off). Every member attempt of that invocation shared
// it, so a failover's whole story — first attempt, switch, second attempt
// — is one trace in the flight recorder.
func (g *GroupBinding) LastTrace() uint64 { return g.trace }

// rebind resolves the membership and binds the best member, skipping the
// one that just failed when any alternative exists.
func (g *GroupBinding) rebind() error {
	members, err := g.resolve()
	if err != nil {
		return fmt.Errorf("core: group resolve: %w", err)
	}
	if len(members) == 0 {
		return errors.New("core: group has no members")
	}
	pick := members[0]
	if g.lastFailed != "" {
		for _, m := range members {
			if len(m.Addrs) > 0 && m.Addrs[0] != g.lastFailed {
				pick = m
				break
			}
		}
	}
	b, err := g.orb.Bind(pick, g.iface)
	if err != nil {
		return err
	}
	b.SetDeadline(g.deadline)
	// One attempt per member: timeouts and sheds must surface here to drive
	// the failover loop, not re-issue against the same member.
	b.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	b.forceTrace = g.trace
	g.b = b
	return nil
}

// advance abandons the current member ahead of the next attempt.
func (g *GroupBinding) advance() {
	if g.b != nil {
		g.lastFailed = g.b.ior.Addrs[0]
	}
	g.b = nil
	g.failovers++
	groupFailovers.Inc()
	// The switch is the interesting event: retain the pinned trace so the
	// failed attempt and the successor attempt survive as one timeline.
	obs.DefaultTracer.MarkTrace(g.trace, obs.RetainFailover)
}

// idempotentOp reports whether op may be safely re-executed on another
// member after a timeout (a shed needs no such check: the refusing server
// never ran the request).
func (g *GroupBinding) idempotentOp(op string) bool {
	opDef, ok := g.iface.Op(op)
	return ok && opDef.Idempotent && !opDef.Oneway
}

// Invoke performs a blocking invocation on the group: up to the retry
// policy's attempt budget of members are tried. A shed reply always fails
// over (after the server's hint, or the policy backoff when none came); a
// deadline expiry fails over only for idempotent operations — anything
// else, including a non-idempotent timeout's InvokeError, surfaces to the
// caller unchanged.
func (g *GroupBinding) Invoke(op string, args []any) ([]any, error) {
	if obs.DefaultTracer.Enabled() {
		// Pin one TraceID for the whole invocation: every member attempt's
		// root span shares it, so the flight recorder sees a failover as one
		// trace, not one-per-member. Cleared on return so the binding's next
		// plain use mints fresh IDs.
		g.trace = obs.NewID()
		defer func() {
			if g.b != nil {
				g.b.forceTrace = 0
			}
		}()
	} else {
		g.trace = 0
	}
	if g.b != nil {
		g.b.forceTrace = g.trace
	}
	attempts := g.retry.attempts()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if g.b == nil {
			if err := g.rebind(); err != nil {
				if lastErr != nil {
					return nil, fmt.Errorf("%w (after %v)", lastErr, err)
				}
				return nil, err
			}
		}
		vals, err := g.b.Invoke(op, args)
		if err == nil {
			g.lastFailed = ""
			return vals, nil
		}
		lastErr = err
		if attempt >= attempts {
			return nil, lastErr
		}
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			delay := shed.RetryAfter
			if delay <= 0 {
				delay = g.retry.backoff(attempt, g.rng)
			}
			g.orb.pause(delay)
			g.advance()
		case errors.Is(err, ErrDeadline) && g.idempotentOp(op):
			g.advance()
		default:
			return nil, err
		}
	}
}
