package core

import "pardis/internal/obs"

// Process-wide ORB instruments, shared by every computing thread's ORB (an
// SPMD client creates one ORB per thread; the counters aggregate across
// them). Registered once on the default registry at package init.
var (
	orbRequests = obs.Default.MustCounter("orb_requests_total")
	orbRetries  = obs.Default.MustCounter("orb_retries_total")
	orbTimeouts = obs.Default.MustCounter("orb_timeouts_total")
	orbCancels  = obs.Default.MustCounter("orb_cancels_total")
	// orbTransportFails counts invocations failed by a broken transport
	// (failAll), as distinct from deadline expiry.
	orbTransportFails = obs.Default.MustCounter("orb_transport_failures_total")
	// orbLatency observes issue-to-resolution time of every two-way
	// invocation, whatever the outcome — timeouts and cancels land in the
	// tail rather than vanishing from it.
	orbLatency = obs.Default.MustHistogram("orb_request_latency_seconds")
	// orbPipelineDepth observes, at each request issue, how many requests
	// are then in flight to that request's server connection — the
	// pipelining depth the multiplexed transport sustains.
	orbPipelineDepth = obs.Default.MustHistogram("orb_pipeline_depth")
	// orbSheds counts StatusOverloaded replies received — each one a server
	// refusing at its admission watermark rather than queueing.
	orbSheds = obs.Default.MustCounter("orb_sheds_total")
	// groupFailovers counts group-binding member switches: a shed reply or
	// an idempotent-invocation timeout sending the next attempt to a
	// different replica of the object group.
	groupFailovers = obs.Default.MustCounter("group_failovers_total")
	// orbSLO accounts each operation's latency/error budget as seen from
	// the client side: an invocation is good iff it resolved without error
	// within the per-op latency target. Defaults are package-wide
	// (99.9% within 100ms over 60s).
	orbSLO = obs.Default.MustSLOSet("orb_slo", obs.SLOConfig{})
)
