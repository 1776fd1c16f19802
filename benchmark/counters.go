package main

// counterMetrics derives the count-sourced layer metrics from the program's
// own counters, read by name at both edges of the window. A name the
// runtime no longer registers leaves its metric out (printed as null).
func counterMetrics(open, close map[string]float64, ops float64, tcp bool, v map[string]float64) {
	// delta sums the window's increase of the named counters; ok is false
	// when any of them is missing.
	delta := func(names ...string) (float64, bool) {
		sum := 0.0
		for _, n := range names {
			a, okA := open[n]
			b, okB := close[n]
			if !okA || !okB {
				return 0, false
			}
			sum += b - a
		}
		return sum, true
	}
	perOp := func(metric string, scale float64, names ...string) {
		if d, ok := delta(names...); ok {
			v[metric] = scale * d / ops
		}
	}
	perOp("core.stream_chunks_per_op", 1, "stream_chunks_total")
	perOp("core.retries_per_op", 1, "orb_retries_total")
	perOp("core.timeouts_per_op", 1, "orb_timeouts_total")
	perOp("poa.agreement_phases_per_op", 1, "poa_agreement_phases_total")
	perOp("poa.dispatches_per_op", 1, "poa_dispatches_total")
	perOp("rts.collectives_per_op", 1, "rts_bcast_total", "rts_gather_total", "rts_allgather_total",
		"rts_reduce_total", "rts_allreduce_total", "rts_barrier_total")
	perOp("rts.rounds_per_op", 1, "rts_collective_rounds_total")
	perOp("tune.probes_per_kop", 1000, "tune_probes_total")
	if d, ok := delta("tune_switches_total"); ok {
		v["tune.switches"] = d
	}
	if d, ok := delta("poa_dispatch_pool_resizes_total"); ok {
		v["poa.pool_resizes"] = d
	}
	// Gauges read as they stand when the window closes (the pool is gone
	// once the servers shut down).
	if peak, ok := close["stream_peak_buffer_bytes"]; ok {
		v["core.stream_peak_buffer_bytes"] = peak
	}
	if workers, ok := close["poa_dispatch_pool_workers"]; ok {
		v["poa.pool_workers_end"] = workers
	}
	frames, okF := delta("nexus_tcp_coalesced_frames_total")
	flushes, okL := delta("nexus_tcp_coalesced_flushes_total")
	// The runtime counts only the flushes that carried more than one frame.
	switch {
	case okF && okL && flushes > 0:
		v["nexus.tcp_frames_per_flush"] = frames / flushes
	case okF && okL && tcp:
		v["nexus.tcp_frames_per_flush"] = 1
	}
	hits, okH := delta("dist_schedule_cache_hits_total")
	misses, okM := delta("dist_schedule_cache_misses_total")
	if okH && okM && hits+misses > 0 {
		v["dist.cache_hit_rate"] = hits / (hits + misses)
	}
}
