package main

import "encoding/json"

// metricDef names one metric, with what BENCHMARK.json records about it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before it counts as a regression; per-layer
	// metrics carry none.
	bound float64
	// floor is an absolute change below which -compare never calls the
	// metric worse, whatever the ratio: noise on a number that small.
	floor float64
}

// endToEnd are the metrics a user of the runtime would see. Every workload
// reports every one of them, each as the median of its repetitions.
//
// The bounds are set from measurement, not from the issue's table: each is
// the table's bound or three times the widest run-to-run spread (distance
// between the quartiles of ten runs, over their median) seen on any listed
// workload, whichever is larger, capped at the 0.25 BENCHMARK.json allows.
// On the 2-core box this was written on, whose speed shifts by a fifth for
// minutes at a time, every timing lands on the cap; README.md has the
// spreads. The benchmark issue that follows the agreement fix revisits them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.050},
	{"lat_p50_us", "us", "lower", 0.25, 0},
	{"ops_per_s", "1/s", "higher", 0.25, 0},
	{"payload_MiB_per_s", "MiB/s", "higher", 0.25, 0},
	{"alloc_bytes_per_op", "B", "lower", 0.05, 0},
	{"allocs_per_op", "1", "lower", 0.05, 0.5},
	{"peak_rss_MiB", "MiB", "lower", 0.15, 0},
}

// failRatioRise is the one absolute bound: fail_ratio, which is 0 on every
// workload, may not rise by more than this.
const failRatioRise = 0.001

// perLayer are the metrics of single layers, named after the runtime's
// packages. They come from the traced pass and carry no bound.
var perLayer = []metricDef{
	{"stub.overhead_ns", "ns", "lower", 0, 0},
	{"core.req_marshal_us", "us", "lower", 0, 0},
	{"core.rep_unmarshal_us", "us", "lower", 0, 0},
	{"core.stream_chunks_per_op", "1", "lower", 0, 0},
	{"core.stream_peak_buffer_bytes", "B", "lower", 0, 0},
	{"core.retries_per_op", "1", "lower", 0, 0},
	{"core.timeouts_per_op", "1", "lower", 0, 0},
	{"pgiop.req_codec_ns", "ns", "lower", 0, 0},
	{"pgiop.rep_codec_ns", "ns", "lower", 0, 0},
	{"pgiop.argstream_codec_ns", "ns", "lower", 0, 0},
	{"typecode.marshal_ns", "ns", "lower", 0, 0},
	{"cdr.bulk_MiB_per_s", "MiB/s", "higher", 0, 0},
	{"cdr.bulk_alloc_bytes_per_MiB", "B", "lower", 0, 0},
	{"nexus.req_transit_us", "us", "lower", 0, 0},
	{"nexus.rep_transit_us", "us", "lower", 0, 0},
	{"nexus.sendv_us", "us", "lower", 0, 0},
	{"nexus.frames_per_op", "1", "lower", 0, 0},
	{"nexus.wire_bytes_per_op", "B", "lower", 0, 0},
	{"nexus.wire_over_payload", "1", "lower", 0, 0},
	{"nexus.raw_rtt_us", "us", "lower", 0, 0},
	{"nexus.tcp_frames_per_flush", "1", "higher", 0, 0},
	{"poa.pre_dispatch_us", "us", "lower", 0, 0},
	{"poa.servant_us", "us", "lower", 0, 0},
	{"poa.post_dispatch_us", "us", "lower", 0, 0},
	{"poa.rank_skew_us", "us", "lower", 0, 0},
	{"poa.agreement_phases_per_op", "1", "lower", 0, 0},
	{"poa.dispatches_per_op", "1", "lower", 0, 0},
	{"poa.pool_workers_end", "count", "lower", 0, 0},
	{"poa.pool_resizes", "count", "lower", 0, 0},
	{"poa.teardown_s", "s", "lower", 0, 0},
	{"rts.bcast2_us", "us", "lower", 0, 0},
	{"rts.p2p_MiB_per_s", "MiB/s", "higher", 0, 0},
	{"rts.collectives_per_op", "1", "lower", 0, 0},
	{"rts.rounds_per_op", "1", "lower", 0, 0},
	{"dist.schedule_build_us", "us", "lower", 0, 0},
	{"dist.schedule_build_small_us", "us", "lower", 0, 0},
	{"dist.schedule_hit_ns", "ns", "lower", 0, 0},
	{"dist.cache_hit_rate", "1", "higher", 0, 0},
	{"dseq.big_run_MiB_per_s", "MiB/s", "higher", 0, 0},
	{"dseq.small_run_ns", "ns", "lower", 0, 0},
	{"future.cycle_ns", "ns", "lower", 0, 0},
	{"tune.probes_per_kop", "1", "lower", 0, 0},
	{"tune.switches", "count", "lower", 0, 0},
	{"obs.recorder_overhead_us", "us", "lower", 0, 0},
	{"trace.overhead_pct", "%", "lower", 0, 0},
	{"trace.sum_over_e2e", "1", "lower", 0, 0},
	{"trace.folded_ops", "count", "higher", 0, 0},
	{"trace.clock_read_ns", "ns", "lower", 0, 0},
	{"proc.cpu_us_per_op", "us", "lower", 0, 0},
	{"go.gc_cycles_per_s", "1/s", "lower", 0, 0},
	{"go.gc_pause_us_per_op", "us", "lower", 0, 0},
	{"caller.lat_mean_us", "us", "lower", 0, 0},
	{"caller.lat_p90_us", "us", "lower", 0, 0},
	{"caller.lat_p99_us", "us", "lower", 0, 0},
}

// runSeconds is BENCHMARK.json's run_seconds: one run measures runReps
// repetitions of runSeconds/runReps each.
const runSeconds = 30

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// cannot drift from what the program prints; the smoke test compares the two.
// Provisional workloads are left out: the driver of BENCHMARK.json refuses
// numbers that do not repeat.
func manifestJSON() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	entries := func(defs []metricDef, bounded bool) []metricEntry {
		var out []metricEntry
		for _, d := range defs {
			e := metricEntry{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				e.Bound = &d.bound
			}
			out = append(out, e)
		}
		return out
	}
	var ws []workloadEntry
	for _, w := range workloads {
		if w.provisional == "" {
			ws = append(ws, workloadEntry{w.name, w.why})
		}
	}
	data, err := json.MarshalIndent(struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		Workloads: ws, EndToEnd: entries(endToEnd, true), PerLayer: entries(perLayer, false),
	}, "", "  ")
	if err != nil {
		panic(err) // the tables are constants: a bug, not an input
	}
	return append(data, '\n')
}
