// Observability gates: tracing overhead on the ORB round trip and hygiene of
// every metric name registered on the default registry. This package imports
// every PARDIS layer, so the registry seen here is the one a deployed
// process exposes.
package pardis_test

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// measureRoundTrip benchmarks the 64-byte TCP echo round trip (the same
// shape as BenchmarkORBRoundTripTCP/payload64) under the current tracer
// state.
func measureRoundTrip() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		cep, sep := tcpPair(b)
		bind, stop := orbPair(b, cep, sep)
		defer stop()
		benchRoundTrip(b, bind, 64)
	})
}

// TestTracingOverheadGate is the CI overhead guard: enabling span recording
// may cost at most 5% in allocs/op on the TCP round trip — which in practice
// means zero extra allocations, since the span ring is bounded and span IDs
// are atomic adds. Allocations are counted over a fixed number of calls. The
// ns/op half of the guard, and the benchmark runs it needs, run only when
// PARDIS_OVERHEAD_GATE=1 (ci.sh sets it): wall-time ratios between two
// back-to-back benchmark runs are too noisy for an always-on assertion on a
// loaded developer machine, and what is not asserted is not measured.
func TestTracingOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation and timing measurements are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark pair takes seconds; skipped with -short")
	}
	cli, srv := tcpPair(t)
	offAllocs, _, onAllocs, recAllocs := tracingAllocs(t, cli, srv)
	t.Logf("allocs/op: tracing off %.0f, ring %.0f, recorder %.0f", offAllocs, onAllocs, recAllocs)
	// +0.5 absorbs integer rounding of the amortized ring-growth allocations.
	if onAllocs > offAllocs*1.05+0.5 {
		t.Errorf("tracing costs allocations: %.0f -> %.0f allocs/op (> 5%%)", offAllocs, onAllocs)
	}
	if recAllocs > offAllocs*1.05+0.5 {
		t.Errorf("flight recorder costs allocations: %.0f -> %.0f allocs/op (> 5%%)", offAllocs, recAllocs)
	}
	if os.Getenv("PARDIS_OVERHEAD_GATE") != "1" {
		return
	}
	// Alternate off/ring/recorder runs and take the minimum of each: the
	// round trip is microseconds, so scheduler and GC noise between two
	// single benchmark invocations swamps the quantity under test.
	// Interleaving cancels heap-growth drift across runs; the per-state
	// minimum is the standard micro-benchmark de-noiser.
	var off, on, rec testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		obs.DefaultTracer.Reset()
		o := measureRoundTrip()
		obs.DefaultTracer.Reset()
		obs.DefaultTracer.SetEnabled(true)
		n := measureRoundTrip()
		obs.DefaultTracer.SetEnabled(false)
		obs.DefaultTracer.EnableRecorder(obs.RecorderConfig{})
		r := measureRoundTrip()
		obs.DefaultTracer.DisableRecorder()
		obs.DefaultTracer.SetEnabled(false)
		if i == 0 || o.NsPerOp() < off.NsPerOp() {
			off = o
		}
		if i == 0 || n.NsPerOp() < on.NsPerOp() {
			on = n
		}
		if i == 0 || r.NsPerOp() < rec.NsPerOp() {
			rec = r
		}
	}
	obs.DefaultTracer.Reset()
	t.Logf("tracing off: %d ns/op; ring: %d ns/op; recorder: %d ns/op", off.NsPerOp(), on.NsPerOp(), rec.NsPerOp())
	// 5% relative, with a 3µs absolute floor: the multiplexed transport and
	// event-driven POA wakeup brought the round trip from ~1ms down to
	// ~12µs, where a purely relative bound would assert on the cost of
	// reading the clock twice per span (~15 spans/op) rather than on
	// regressions. The floor still fails the gate if tracing ever grows
	// per-span work — a pathological recorder costs tens of microseconds,
	// not three.
	limit := float64(off.NsPerOp())*1.05 + 3000
	if float64(on.NsPerOp()) > limit {
		t.Errorf("tracing latency overhead: %d -> %d ns/op (> 5%% + 3µs)", off.NsPerOp(), on.NsPerOp())
	}
	if float64(rec.NsPerOp()) > limit {
		t.Errorf("flight recorder latency overhead: %d -> %d ns/op (> 5%% + 3µs)", off.NsPerOp(), rec.NsPerOp())
	}
}

// roundTripAllocBudget is the 64 B echo's whole-process allocation ceiling
// on the hand-written orbPair servant: argument boxing and result slice in
// the test's own code (2), the caller's result slice, and the argument and
// result values, copied out of their pooled frames and boxed (4) — DESIGN.md
// §7 has the table. Both ceilings are what the call measures on both fabrics
// (7 allocations, 232 B), so anything that allocates per call — a clock
// read included — fails here.
const (
	roundTripAllocBudget = 7
	roundTripByteBudget  = 232
)

// pipelinedWorkAllocBudget is the same ceiling for the shape of the repo
// benchmark's serve_pipelined_tcp — Worker.work (a long in, a double out),
// 32 calls in flight on a pooled server, its result read the way the
// generated stub reads it: the caller's cell (64 B, the result unboxed in
// it), the argument boxed by the caller and again by the server's decode,
// and the servant's result slice and boxed result (5; the benchmark's
// generated stub adds its argument slice, which escapes there). No frame, no
// call record, no per-request context and no boxed result (99 B measured).
// A caller that reads the cell's Values instead has the result boxed into
// the cell's empty slot, once: one allocation more (111 B measured), held to
// the ceilings the call had while every result was boxed.
const (
	pipelinedWorkAllocBudget       = 5
	pipelinedWorkByteBudget        = 104
	pipelinedValuesWorkAllocBudget = 6
	pipelinedValuesWorkByteBudget  = 144
)

// allocsPerRun is testing.AllocsPerRun reporting the bytes beside the count:
// the whole process's heap allocations per call of f, and their size, each
// truncated to an integer, after one warm-up call.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// tracingAllocs counts the 64 B echo round trip's whole-process allocations
// per call over cli/srv with tracing off, with the span ring on and with the
// flight recorder on, and its bytes per call with tracing off.
func tracingAllocs(t *testing.T, cli, srv nexus.Endpoint) (off, offBytes, ring, rec float64) {
	bind, stop := orbPair(t, cli, srv)
	defer stop()
	x := make([]byte, 64)
	echo := func() {
		if _, err := bind.Invoke("echo", []any{x, nil}); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() (allocs, bytes float64) {
		for i := 0; i < 500; i++ { // fill pools, the span ring, lazy dials
			echo()
		}
		return allocsPerRun(2000, echo)
	}
	defer obs.DefaultTracer.Reset()
	obs.DefaultTracer.Reset()
	off, offBytes = measure()
	obs.DefaultTracer.SetEnabled(true)
	ring, _ = measure()
	obs.DefaultTracer.SetEnabled(false)
	obs.DefaultTracer.EnableRecorder(obs.RecorderConfig{})
	rec, _ = measure()
	obs.DefaultTracer.DisableRecorder()
	obs.DefaultTracer.SetEnabled(false)
	return off, offBytes, ring, rec
}

// TestRoundTripAllocBudget holds the small-message allocation budget on
// both fabrics, and holds observability to adding nothing to it: the span
// ring and the flight recorder's boring path are amortized-allocation-free.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fabrics := []struct {
		name string
		pair func(tb testing.TB) (cli, srv nexus.Endpoint)
	}{
		{"inproc", func(testing.TB) (nexus.Endpoint, nexus.Endpoint) {
			fab := nexus.NewInproc()
			return fab.NewEndpoint("cli"), fab.NewEndpoint("srv")
		}},
		{"tcp", tcpPair},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			cli, srv := f.pair(t)
			off, offBytes, ring, rec := tracingAllocs(t, cli, srv)
			t.Logf("allocs/op: tracing off %.0f (%.0f B), ring %.0f, recorder %.0f", off, offBytes, ring, rec)
			if off > roundTripAllocBudget {
				t.Errorf("64 B round trip costs %.0f allocs/op, budget %d", off, roundTripAllocBudget)
			}
			if offBytes > roundTripByteBudget {
				t.Errorf("64 B round trip costs %.0f B/op, budget %d", offBytes, roundTripByteBudget)
			}
			if ring > off {
				t.Errorf("span ring adds allocations: %.0f -> %.0f allocs/op", off, ring)
			}
			if rec > off {
				t.Errorf("flight recorder adds allocations: %.0f -> %.0f allocs/op", off, rec)
			}
		})
	}
}

// TestPipelinedWorkAllocBudget holds the pipelined scalar call to its budget:
// what it allocates is the caller's cell and boxed values, not frames, call
// records or contexts — and, read through its typed future, not its result.
func TestPipelinedWorkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name          string
		read          func(*future.Cell) (float64, error)
		allocs, bytes float64
	}{
		{"Get", func(c *future.Cell) (float64, error) { return future.Of[float64](c, 0).Get() },
			pipelinedWorkAllocBudget, pipelinedWorkByteBudget},
		{"Values", func(c *future.Cell) (float64, error) {
			vals, err := c.Values()
			if err != nil {
				return 0, err
			}
			x, _ := vals[0].(float64)
			return x, nil
		}, pipelinedValuesWorkAllocBudget, pipelinedValuesWorkByteBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, bytes := pipelinedWork(t, tc.read)
			t.Logf("pipelined Worker.work, read by %s: %.0f allocs/op, %.0f B/op", tc.name, allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("pipelined Worker.work costs %.0f allocs/op, budget %.0f", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("pipelined Worker.work costs %.0f B/op, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}

// pipelinedWork measures Worker.work at depth 32 over TCP on a pooled server,
// each result read by read, and returns its allocations and bytes per call.
func pipelinedWork(t *testing.T, read func(*future.Cell) (float64, error)) (allocs, bytes float64) {
	const depth = 32
	iface := &core.InterfaceDef{Name: "Worker", Ops: []core.Operation{{
		Name: "work",
		Params: []core.Param{
			core.NewParam("n", core.In, typecode.TCLong),
			core.NewParam("sum", core.Out, typecode.TCDouble),
		},
	}}}
	cli, srv := tcpPair(t)
	defer cli.Close()
	defer srv.Close()
	bind, stop := servantPair(t, cli, srv, iface,
		func(_ *poa.Context, _ string, in []any) (any, []any, error) {
			return nil, []any{float64(in[0].(int32)) / 2}, nil
		},
		func(a *poa.POA) { a.SetDispatchAuto(1, 4) })
	defer stop()
	var ring [depth]*future.Cell
	next := 0
	work := func() {
		if c := ring[next%depth]; c != nil {
			x, err := read(c)
			if err != nil || x != float64(next-depth)/2 {
				t.Fatalf("call %d: (%v, %v)", next-depth, x, err)
			}
		}
		c, err := bind.InvokeNB("work", []any{int32(next), nil})
		if err != nil {
			t.Fatal(err)
		}
		ring[next%depth] = c
		next++
	}
	for i := 0; i < 2000; i++ { // fill the ring, the pools, the worker pool
		work()
	}
	return allocsPerRun(5000, work)
}

// TestMetricNameHygiene is the registry lint: every name registered by any
// package init in the tree (this test binary links them all) must be unique
// and well-formed, and the instruments the introspection endpoint is
// documented to serve must actually exist.
func TestMetricNameHygiene(t *testing.T) {
	names := obs.Default.Names()
	if len(names) == 0 {
		t.Fatal("default registry is empty — package metric inits did not run")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if err := obs.CheckName(n); err != nil {
			t.Errorf("malformed metric name %q: %v", n, err)
		}
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"orb_requests_total",
		"orb_request_latency_seconds",
		"orb_retries_total",
		"orb_timeouts_total",
		"orb_cancels_total",
		"poa_dispatches_total",
		"poa_dispatch_latency_seconds",
		"poa_dispatch_pool_depth",
		"poa_faults_total",
		"rts_collective_rounds_total",
		"dist_schedule_cache_hits_total",
		"dist_schedule_cache_hit_rate",
		"future_cells_total",
		"nexus_tcp_connections_live",
		"nexus_tcp_bytes_in_total",
		"nexus_tcp_bytes_out_total",
		"nexus_tcp_coalesced_flushes_total",
		"nexus_tcp_coalesced_frames_total",
		"nexus_tcp_flushes_total",
		"nexus_tcp_deferred_frames_total",
		"nexus_tcp_frames_read_in_place_total",
		"nexus_tcp_read_handoffs_total",
		"nexus_tcp_polls_empty_total",
		"orb_pipeline_depth",
		"rts_bcast_payload_bytes",
		"rts_gather_payload_bytes",
		"rts_allgather_payload_bytes",
		"rts_reduce_payload_bytes",
		"poa_dispatch_pool_workers",
		"poa_dispatch_pool_resizes_total",
		"stream_chunks_total",
		"stream_peak_buffer_bytes",
		"poa_shed_total",
		"group_failovers_total",
		"group_members",
		"group_resolves_total",
		"group_load_reports_total",
		"group_expired_total",
		"trace_spans_dropped_total",
		"trace_retained_total",
		"trace_recycled_total",
		"orb_slo",
		"poa_slo",
	} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}

	// The Prometheus exposition must carry every registered name.
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, n := range names {
		if !strings.Contains(text, n) {
			t.Errorf("prometheus exposition dropped %q", n)
		}
	}
}
