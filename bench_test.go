// Benchmarks regenerating the paper's evaluation (one per figure, plus the
// ablations of DESIGN.md) and real-time micro-benchmarks of the fast paths.
//
// The figure benchmarks run the deterministic virtual-time experiments and
// report the modeled result as vsec_* metrics; ns/op for them measures the
// harness itself. The micro-benchmarks measure real wall time of the
// marshaling, transport and ORB paths. Full sweeps with the paper's
// parameters: `go run ./cmd/pardis-bench`.
package pardis_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"pardis/internal/bench"
	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// BenchmarkFigure2 regenerates Figure 2 (distributed vs local solver
// execution) at a representative problem size.
func BenchmarkFigure2(b *testing.B) {
	var last bench.Fig2Point
	for i := 0; i < b.N; i++ {
		last = bench.Figure2([]int{600})[0]
	}
	b.ReportMetric(last.Direct, "vsec_direct")
	b.ReportMetric(last.Iterative, "vsec_iterative")
	b.ReportMetric(last.Distributed, "vsec_distributed")
	b.ReportMetric(last.SameServer, "vsec_same_server")
}

// BenchmarkFigure4 regenerates Figure 4 (centralized vs distributed single
// objects) at 4 server processors.
func BenchmarkFigure4(b *testing.B) {
	var last bench.Fig4Point
	for i := 0; i < b.N; i++ {
		last = bench.Figure4([]int{4})[0]
	}
	b.ReportMetric(last.Centralized, "vsec_centralized")
	b.ReportMetric(last.Distributed, "vsec_distributed")
	b.ReportMetric(last.Difference, "vsec_difference")
}

// BenchmarkFigure5 regenerates Figure 5 (the pipelined metaapplication) at
// 4 processors per component.
func BenchmarkFigure5(b *testing.B) {
	var last bench.Fig5Point
	for i := 0; i < b.N; i++ {
		last = bench.Figure5([]int{4})[0]
	}
	b.ReportMetric(last.Overall, "vsec_overall")
	b.ReportMetric(last.Diffusion, "vsec_diffusion")
	b.ReportMetric(last.Gradient, "vsec_gradient")
}

// BenchmarkAblationParallelTransfer compares direct thread-to-thread
// argument transfer with the funneled baseline.
func BenchmarkAblationParallelTransfer(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationParallelTransfer(250_000)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_direct")
	b.ReportMetric(pts[1].Seconds, "vsec_funneled")
}

// BenchmarkAblationLocalShortcut compares co-located and remote invocation.
func BenchmarkAblationLocalShortcut(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationLocalShortcut(100_000)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_colocated")
	b.ReportMetric(pts[1].Seconds, "vsec_remote")
}

// BenchmarkAblationNonBlocking compares overlapped and sequential solver
// invocations.
func BenchmarkAblationNonBlocking(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationNonBlocking(400)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_overlap")
	b.ReportMetric(pts[1].Seconds, "vsec_blocking")
}

// BenchmarkAblationOneway compares the two-way and oneway pipelines.
func BenchmarkAblationOneway(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationOneway(4)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_twoway")
	b.ReportMetric(pts[1].Seconds, "vsec_oneway")
}

// BenchmarkAblationCommThreads runs the paper's §6 future-work experiment:
// the Figure 5 pipeline with dedicated communication threads doing the
// sending.
func BenchmarkAblationCommThreads(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationCommThreads(8)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_single_threaded")
	b.ReportMetric(pts[1].Seconds, "vsec_comm_threads")
}

// BenchmarkAblationRedistribution measures template-to-template
// redistribution in modeled time.
func BenchmarkAblationRedistribution(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationRedistribution(500_000)
	}
	for _, p := range pts {
		_ = p
	}
	b.ReportMetric(pts[1].Seconds, "vsec_block_to_cyclic")
	b.ReportMetric(pts[3].Seconds, "vsec_collapsed_to_block")
}

// --- Real-time micro-benchmarks ---------------------------------------------

// BenchmarkMarshalNested measures compiler-style marshaling of the paper's
// matrix type (a sequence of dynamically-sized rows of doubles).
func BenchmarkMarshalNested(b *testing.B) {
	rowTC := typecode.SequenceOf(typecode.TCDouble, 0)
	matTC := typecode.SequenceOf(rowTC, 0)
	rows := make([]any, 64)
	for i := range rows {
		r := make([]float64, 64)
		rows[i] = r
	}
	b.SetBytes(64 * 64 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cdr.NewEncoder(64 * 64 * 8)
		if err := typecode.Marshal(e, matTC, rows); err != nil {
			b.Fatal(err)
		}
		if _, err := typecode.Unmarshal(cdr.NewDecoder(e.Bytes()), matTC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDRDoubles measures the bulk double fast path.
func BenchmarkCDRDoubles(b *testing.B) {
	v := make([]float64, 8192)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cdr.NewEncoder(8192 * 8)
		e.PutDoubles(v)
		if got := cdr.NewDecoder(e.Bytes()).GetDoubles(); len(got) != 8192 {
			b.Fatal("bad length")
		}
	}
}

// BenchmarkFutureResolveGet measures future mint/resolve/read overhead.
func BenchmarkFutureResolveGet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := future.NewCell()
		f := future.Of[int](c, 0)
		c.Resolve([]any{i}, nil)
		if v, _ := f.Get(); v != i {
			b.Fatal("bad value")
		}
	}
}

// BenchmarkDSeqRedistribute measures a real block->cyclic redistribution
// over 4 chan-backend threads.
func BenchmarkDSeqRedistribute(b *testing.B) {
	const n = 100_000
	b.SetBytes(n * 8)
	for i := 0; i < b.N; i++ {
		rts.NewChanGroup("bench", 4).Run(func(th rts.Thread) {
			s := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
			s.Redistribute(dist.CyclicTemplate())
		})
	}
}

// BenchmarkScheduleCache measures building a block->cyclic transfer plan
// against hitting the schedule cache with the same shape.
func BenchmarkScheduleCache(b *testing.B) {
	src := dist.BlockTemplate().Layout(250_000, 8)
	dst := dist.CyclicTemplate().Layout(250_000, 8)
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.NewSchedule(src, dst)
		}
	})
	b.Run("hit", func(b *testing.B) {
		cache := dist.NewScheduleCache(16)
		cache.Get(src, dst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Get(src, dst)
		}
	})
}

// tcpPair opens a client and a server endpoint on loopback TCP.
func tcpPair(tb testing.TB) (cli, srv nexus.Endpoint) {
	tb.Helper()
	cli, err := nexus.NewTCPEndpoint("")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err = nexus.NewTCPEndpoint("")
	if err != nil {
		tb.Fatal(err)
	}
	return cli, srv
}

// orbPair wires a single-object echo server and a client over a fabric.
// configure, if given, runs on the server thread before the object is
// registered (a dispatch pool, say).
func orbPair(b testing.TB, clientEP, serverEP nexus.Endpoint, configure ...func(*poa.POA)) (*core.Binding, func()) {
	b.Helper()
	iface := &core.InterfaceDef{
		Name: "echo",
		Ops: []core.Operation{{
			Name: "echo",
			Params: []core.Param{
				core.NewParam("x", core.In, typecode.SequenceOf(typecode.TCOctet, 0)),
				core.NewParam("y", core.Out, typecode.SequenceOf(typecode.TCOctet, 0)),
			},
		}},
	}
	return servantPair(b, clientEP, serverEP, iface, func(_ *poa.Context, _ string, in []any) (any, []any, error) {
		return nil, []any{in[0]}, nil
	}, configure...)
}

// servantPair is orbPair for any single object: iface served by servant.
func servantPair(b testing.TB, clientEP, serverEP nexus.Endpoint, iface *core.InterfaceDef, servant poa.ServantFunc, configure ...func(*poa.POA)) (*core.Binding, func()) {
	b.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	iorCh := make(chan core.IOR, 1)
	go func() {
		defer wg.Done()
		th := rts.NewChanGroup("srv", 1).Thread(0)
		adapter := poa.New(th, core.NewRouter(serverEP), nil)
		adapter.PollInterval = 20e-6
		for _, fn := range configure {
			fn(adapter)
		}
		ior, err := adapter.RegisterSingle("echo-1", iface, servant)
		if err != nil {
			b.Error(err)
			return
		}
		iorCh <- ior
		adapter.ImplIsReady()
	}()
	orb := core.NewORB(core.NewRouter(clientEP), nil, nil)
	bind, err := orb.Bind(<-iorCh, iface)
	if err != nil {
		b.Fatal(err)
	}
	return bind, func() {
		bind.Shutdown("bench done")
		wg.Wait()
	}
}

func benchRoundTrip(b *testing.B, bind *core.Binding, payload int) {
	x := make([]byte, payload)
	b.SetBytes(int64(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := bind.Invoke("echo", []any{x, nil})
		if err != nil {
			b.Fatal(err)
		}
		if len(vals[0].([]byte)) != payload {
			b.Fatal("bad echo")
		}
	}
}

// BenchmarkORBRoundTripInproc measures a full marshaled request/reply over
// the in-process fabric.
func BenchmarkORBRoundTripInproc(b *testing.B) {
	for _, payload := range []int{64, 65536} {
		b.Run(fmt.Sprintf("payload%d", payload), func(b *testing.B) {
			fab := nexus.NewInproc()
			bind, stop := orbPair(b, fab.NewEndpoint("cli"), fab.NewEndpoint("srv"))
			defer stop()
			benchRoundTrip(b, bind, payload)
		})
	}
}

// BenchmarkORBRoundTripTCP measures a full request/reply over loopback TCP.
func BenchmarkORBRoundTripTCP(b *testing.B) {
	for _, payload := range []int{64, 65536} {
		b.Run(fmt.Sprintf("payload%d", payload), func(b *testing.B) {
			cep, sep := tcpPair(b)
			bind, stop := orbPair(b, cep, sep)
			defer stop()
			benchRoundTrip(b, bind, payload)
		})
	}
}

// pipelinedEchoes completes n echo invocations through bind with up to depth
// of them in flight, checking every reply against the request it answers:
// each payload carries its call's index, so a lost, duplicated or reordered
// frame cannot pass.
func pipelinedEchoes(tb testing.TB, bind *core.Binding, n, depth int) {
	const payload = 64
	cells := make([]*future.Cell, depth)
	x := make([]byte, payload) // marshaled before InvokeNB returns, so reused
	for i := 0; i < n+depth; i++ {
		slot := i % depth
		if i >= depth {
			vals, err := cells[slot].Values()
			if err != nil {
				tb.Fatal(err)
			}
			y, _ := vals[0].([]byte)
			if len(y) != payload || binary.BigEndian.Uint64(y) != uint64(i-depth) {
				tb.Fatalf("call %d: bad echo % x", i-depth, y)
			}
		}
		if i < n {
			binary.BigEndian.PutUint64(x, uint64(i))
			c, err := bind.InvokeNB("echo", []any{x, nil})
			if err != nil {
				tb.Fatal(err)
			}
			cells[slot] = c
		}
	}
}

// tcpWriteCounts reads the TCP combiner's counters: small-frame socket
// writes, and frames whose sender left them for a later write.
func tcpWriteCounts(tb testing.TB) (flushes, deferred uint64) {
	obs.Default.Each(func(name string, m any) {
		switch c, _ := m.(*obs.Counter); name {
		case "nexus_tcp_flushes_total":
			flushes = c.Load()
		case "nexus_tcp_deferred_frames_total":
			deferred = c.Load()
		}
	})
	return flushes, deferred
}

// pipelinedTCPPair is orbPair over loopback TCP. With workers > 0 the server
// dispatches through a pool of that many — the shape of the repo benchmark's
// serve_pipelined_tcp; with 0 its one thread serves every call itself.
func pipelinedTCPPair(tb testing.TB, workers int) (*core.Binding, func()) {
	cep, sep := tcpPair(tb)
	bind, stop := orbPair(tb, cep, sep, func(a *poa.POA) { a.SetDispatchAuto(workers, workers) })
	return bind, func() {
		stop()
		cep.Close()
		sep.Close()
	}
}

// pipelinedServers are the two servers a pipelined caller can face; both
// must batch their replies (DESIGN.md §12).
var pipelinedServers = []struct {
	name    string
	workers int
}{{"pool", 4}, {"serial", 0}}

// BenchmarkORBPipelinedTCP is the throughput counterpart of
// BenchmarkORBRoundTripTCP: 32 outstanding InvokeNB over loopback TCP on a
// pooled and on a serial server, every echo verified. frames/write is
// requests plus replies over the small-frame socket writes that carried them
// — 1 means every frame cost its own write(2); the deferred-flush policy
// (DESIGN.md §12) is what raises it.
func BenchmarkORBPipelinedTCP(b *testing.B) {
	for _, srv := range pipelinedServers {
		b.Run(srv.name, func(b *testing.B) {
			bind, stop := pipelinedTCPPair(b, srv.workers)
			defer stop()
			pipelinedEchoes(b, bind, 256, 32) // warm: dials, scratch buffers, pool
			flushes0, _ := tcpWriteCounts(b)
			b.ResetTimer()
			pipelinedEchoes(b, bind, b.N, 32)
			b.StopTimer()
			flushes, _ := tcpWriteCounts(b)
			b.ReportMetric(float64(2*b.N)/float64(flushes-flushes0), "frames/write")
		})
	}
}

// TestPipelinedCallsShareWrites is the deferred-flush policy end to end:
// with 32 calls in flight, requests and replies share their write(2)s and
// every one of 10 000 echoes is verified — on a pooled server and on a
// serial one, on one processor and on two (ci.sh runs it with -cpu 1,2).
// The caller works through each batch of replies one call at a time, so its
// inbox is non-empty while it sends; the adapter takes a request only when
// it can dispatch it (poa's take), so the server's inbox is non-empty while
// it replies: observation (a) holds in both directions on any scheduler.
// Measured 14–32 frames per write, loaded box included; the bound is 8.
// Under the race detector the caller is the slow side — a pool that keeps
// up with its input has an empty inbox and rightly writes at once — so
// there the bound is only that batching happens at all.
func TestPipelinedCallsShareWrites(t *testing.T) {
	const calls = 10000
	maxWrites := uint64(2 * calls / 8)
	if raceEnabled {
		maxWrites = 2 * calls * 3 / 5
	}
	for _, srv := range pipelinedServers {
		t.Run(srv.name, func(t *testing.T) {
			bind, stop := pipelinedTCPPair(t, srv.workers)
			defer stop()
			pipelinedEchoes(t, bind, 256, 32)
			flushes0, deferred0 := tcpWriteCounts(t)
			pipelinedEchoes(t, bind, calls, 32)
			flushes, deferred := tcpWriteCounts(t)
			flushes, deferred = flushes-flushes0, deferred-deferred0
			t.Logf("%d frames in %d writes (%.1f frames/write), %d deferred", 2*calls, flushes, float64(2*calls)/float64(flushes), deferred)
			if flushes > maxWrites {
				t.Errorf("%d socket writes for %d frames, want at most %d", flushes, 2*calls, maxWrites)
			}
		})
	}
}

// TestBlockingCallWaitsInOneRead: a blocking call over TCP and the idle
// adapter that serves it park in a read of their connection without polling
// it first — the wait's read is the probe (DESIGN.md §12, "Who reads a
// frame"). Both ends read their connection in place, so every poll that
// finds nothing there is a read(2) the wait after it makes anyway; a poll
// before each wait made about 3 per call. Over 10 000 verified echoes, on a
// plain binding and on one with a deadline armed (the pump's timed wait),
// such empty polls stay at most one per 100 calls. ci.sh runs it with
// -cpu 1,2.
func TestBlockingCallWaitsInOneRead(t *testing.T) {
	const calls = 10000
	for _, c := range []struct {
		name     string
		deadline float64
	}{{"plain", 0}, {"deadline", 30}} {
		t.Run(c.name, func(t *testing.T) {
			cep, sep := tcpPair(t)
			bind, stop := orbPair(t, cep, sep)
			defer func() {
				stop()
				cep.Close()
				sep.Close()
			}()
			bind.SetDeadline(c.deadline)
			x := make([]byte, 64)
			echo := func(i int) {
				binary.BigEndian.PutUint64(x, uint64(i))
				out, err := bind.Invoke("echo", []any{x, nil})
				if err != nil {
					t.Fatal(err)
				}
				if y, _ := out[0].([]byte); len(y) != len(x) || binary.BigEndian.Uint64(y) != uint64(i) {
					t.Fatalf("call %d: bad echo % x", i, y)
				}
			}
			for i := range 100 { // warm: dial, placement
				echo(i)
			}
			empty0 := tcpPollsEmpty()
			for i := range calls {
				echo(i)
			}
			empty := tcpPollsEmpty() - empty0
			t.Logf("%d empty polls in %d calls", empty, calls)
			if empty > calls/100 {
				t.Errorf("%d polls found no frame in %d blocking calls, want at most %d", empty, calls, calls/100)
			}
		})
	}
}

// tcpPollsEmpty reads the polls that read a TCP connection in place and
// found no whole frame.
func tcpPollsEmpty() (n uint64) {
	obs.Default.Each(func(name string, m any) {
		if c, ok := m.(*obs.Counter); ok && name == "nexus_tcp_polls_empty_total" {
			n = c.Load()
		}
	})
	return n
}

// BenchmarkLocalBypass measures the co-located direct-call shortcut against
// the marshaled path (see BenchmarkORBRoundTripInproc for the contrast).
func BenchmarkLocalBypass(b *testing.B) {
	fab := nexus.NewInproc()
	table := core.NewLocalTable()
	iface := &core.InterfaceDef{
		Name: "echo",
		Ops: []core.Operation{{
			Name: "echo",
			Params: []core.Param{
				core.NewParam("x", core.In, typecode.SequenceOf(typecode.TCOctet, 0)),
				core.NewParam("y", core.Out, typecode.SequenceOf(typecode.TCOctet, 0)),
			},
		}},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	iorCh := make(chan core.IOR, 1)
	go func() {
		defer wg.Done()
		th := rts.NewChanGroup("srv", 1).Thread(0)
		adapter := poa.New(th, core.NewRouter(fab.NewEndpoint("srv")), table)
		adapter.PollInterval = 20e-6
		ior, _ := adapter.RegisterSingle("echo-1", iface, poa.ServantFunc(
			func(_ *poa.Context, _ string, in []any) (any, []any, error) {
				return nil, []any{in[0]}, nil
			}))
		iorCh <- ior
		adapter.ImplIsReady()
	}()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, table)
	bind, err := orb.Bind(<-iorCh, iface)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		bind.Shutdown("done")
		wg.Wait()
	}()
	x := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bind.Invoke("echo", []any{x, nil}); err != nil {
			b.Fatal(err)
		}
	}
}
