package poa

import "pardis/internal/obs"

// Process-wide POA instruments, shared by every computing thread's adapter
// (per-thread attribution lives in trace spans, not metric names).
var (
	poaDispatches = obs.Default.MustCounter("poa_dispatches_total")
	poaExceptions = obs.Default.MustCounter("poa_exceptions_total")
	poaFaults     = obs.Default.MustCounter("poa_faults_total")
	// poaAgreementPhases counts collective dispatch-agreement rounds, once
	// each, at thread 0, which announces them (see collectivePhase for when
	// one runs).
	poaAgreementPhases = obs.Default.MustCounter("poa_agreement_phases_total")
	// poaPoolDepth is the number of single-object requests currently queued
	// to or executing on the opt-in dispatch pool.
	poaPoolDepth = obs.Default.MustGauge("poa_dispatch_pool_depth")
	// poaPoolWorkers is the dispatch pool's current worker count, floating
	// in the [min, max] of SetDispatchAuto. Last-writer-wins across POAs, like the depth gauge.
	poaPoolWorkers = obs.Default.MustGauge("poa_dispatch_pool_workers")
	// poaPoolResizes counts grow/shrink events of the dispatch pool.
	poaPoolResizes = obs.Default.MustCounter("poa_dispatch_pool_resizes_total")
	// poaDispatchLatency observes routing-to-reply time of every dispatch,
	// single and SPMD.
	poaDispatchLatency = obs.Default.MustHistogram("poa_dispatch_latency_seconds")
	// poaSheds counts requests refused at the admission watermark (see
	// SetAdmission) — each one answered with StatusOverloaded and a retry
	// hint rather than queued.
	poaSheds = obs.Default.MustCounter("poa_shed_total")
	// poaSLO accounts each operation's latency/error budget as seen at the
	// adapter: a dispatch is good iff the servant produced a deliverable
	// result within the per-op latency target (sheds never reach dispatch,
	// so they show up in the client-side orb_slo instead).
	poaSLO = obs.Default.MustSLOSet("poa_slo", obs.SLOConfig{})
)
