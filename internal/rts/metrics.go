package rts

import "pardis/internal/obs"

// Collective instruments, counted in the shared cores so the plain and
// Deadline entry points both land here. AllReduce is reduce-then-bcast, so
// one AllReduce also bumps the reduce and bcast counters — the counters
// tally executions of each tree, not API calls.
var (
	rtsBcasts        = obs.Default.MustCounter("rts_bcast_total")
	rtsGathers       = obs.Default.MustCounter("rts_gather_total")
	rtsAllGathers    = obs.Default.MustCounter("rts_allgather_total")
	rtsAllGatherRing = obs.Default.MustCounter("rts_allgather_ring_total")
	rtsReduces       = obs.Default.MustCounter("rts_reduce_total")
	rtsAllReduces    = obs.Default.MustCounter("rts_allreduce_total")
	rtsBarriers      = obs.Default.MustCounter("rts_barrier_total")
	// rtsRounds totals the message rounds (tree depth) of every collective
	// this thread ran: ⌈log₂P⌉ per tree, P-1 per ring. The ratio
	// rounds/collectives is the observed average depth — the O(log P) claim
	// as a live metric.
	rtsRounds = obs.Default.MustCounter("rts_collective_rounds_total")
)

// Per-collective payload-size histograms: the observed size distribution
// answers "what does this workload actually send". Bcast sizes are
// recorded at the root (the only rank that knows them); the symmetric
// collectives record each rank's local contribution.
var (
	rtsBcastBytes     = obs.Default.MustHistogram("rts_bcast_payload_bytes")
	rtsGatherBytes    = obs.Default.MustHistogram("rts_gather_payload_bytes")
	rtsAllGatherBytes = obs.Default.MustHistogram("rts_allgather_payload_bytes")
	rtsReduceBytes    = obs.Default.MustHistogram("rts_reduce_payload_bytes")
)

// observeBytes records a byte count on a power-of-two histogram, mapping
// one byte to the histogram's base unit (1 ns), so bucket i holds payloads
// of bit length i and snapshot quantiles read as bytes × 1e-9.
func observeBytes(h *obs.Histogram, n int) {
	h.Observe(float64(n) * 1e-9)
}

// treeRounds is ⌈log₂ size⌉ — the round count of the binomial and
// dissemination schedules.
func treeRounds(size int) uint64 {
	r := uint64(0)
	for m := 1; m < size; m <<= 1 {
		r++
	}
	return r
}
