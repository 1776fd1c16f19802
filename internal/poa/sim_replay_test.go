package poa_test

import (
	"fmt"
	"reflect"
	"testing"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// simReplay is what one run of the replay scenario observed.
type simReplay struct {
	spans    []obs.Span // IDs renumbered by first appearance
	p95      float64    // rank 0's LoadReport
	depth    int
	lat      obs.HistogramSnapshot // rank 0's single-object dispatch latency
	resends  int
	injected int
}

// runSimReplay runs one seeded scenario on virtual time with tracing on: a
// 2-thread server with an SPMD object on both threads and a single object
// on rank 0, a 2-thread client scaling a distributed sequence through the
// SPMD object, and a 1-thread client calling the single object through a
// fault injector that drops, duplicates and delays its requests, on a
// binding with a deadline and retries.
func runSimReplay(t *testing.T, seed uint64) simReplay {
	t.Helper()
	obs.DefaultTracer.Reset()
	sim := vtime.NewSim()
	fab := nexus.NewSimFabric(sim)
	tb := simnet.PaperTestbed()
	srvHost, cliHost := tb.Host("powerchallenge"), tb.Host("onyx")
	fab.Connect("onyx", "powerchallenge", tb.Link("atm"))
	fi := nexus.NewFaultInjector(seed, nexus.FaultPlan{Drop: 0.2, Dup: 0.1, Delay: 0.1})

	iors := vtime.NewChan(sim, "iors")
	done := vtime.NewChan(sim, "single-done")
	var out simReplay
	rts.NewSimGroup(sim, srvHost, 2).Spawn("server", func(th rts.Thread) {
		st := th.(*rts.SimThread)
		p := poa.New(th, core.NewRouter(fab.NewEndpoint(fmt.Sprintf("srv%d", th.Rank()), st.Proc(), srvHost)), nil)
		p.PollInterval = 100e-6
		spmd, err := p.RegisterSPMD("scaler", scaleIface(), scaleServant{})
		if err != nil {
			panic(err)
		}
		if th.Rank() == 0 {
			single, err := p.RegisterSingle("probe", probeIface(), &probeServant{})
			if err != nil {
				panic(err)
			}
			st.Proc().Send(iors, [2]core.IOR{spmd, single}, 0)
		}
		p.ImplIsReady()
		if th.Rank() == 0 {
			out.p95, out.depth = p.LoadReport()
			out.lat, _, _ = p.MetricsSnapshot()
		}
	})
	rts.NewSimGroup(sim, cliHost, 1).Spawn("single", func(th rts.Thread) {
		st := th.(*rts.SimThread)
		got := st.Proc().Recv(iors).([2]core.IOR)
		st.Proc().Send(iors, got, 0)
		orb := core.NewORB(core.NewRouter(fi.Wrap(fab.NewEndpoint("single", st.Proc(), cliHost))), th, nil)
		b, err := orb.Bind(got[1], probeIface())
		if err != nil {
			panic(err)
		}
		b.SetDeadline(0.02)
		b.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 6, BaseBackoff: 0.004, MaxBackoff: 0.02, JitterSeed: seed})
		for i := range 20 {
			if vals, err := b.Invoke("probe", []any{int32(i)}); err == nil && vals[0] != float64(i)*0.5 {
				panic(fmt.Sprintf("probe %d = %v", i, vals[0]))
			}
		}
		st.Proc().Send(done, true, 0)
	})
	rts.NewSimGroup(sim, cliHost, 2).Spawn("spmd", func(th rts.Thread) {
		st := th.(*rts.SimThread)
		got := st.Proc().Recv(iors).([2]core.IOR)
		st.Proc().Send(iors, got, 0)
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint(fmt.Sprintf("spmd%d", th.Rank()), st.Proc(), cliHost)), th, nil)
		b, err := orb.SPMDBind(got[0], scaleIface())
		if err != nil {
			panic(err)
		}
		for range 3 {
			x := dseq.New[float64](th, 1000, dist.BlockTemplate(), dseq.Float64Codec{})
			y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
			if _, err := b.Invoke("scale", []any{2.0, x, y}); err != nil {
				panic(err)
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			st.Proc().Recv(done)
			b.Shutdown("replayed")
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	ids := map[uint64]uint64{0: 0}
	renumber := func(id uint64) uint64 {
		if _, ok := ids[id]; !ok {
			ids[id] = uint64(len(ids))
		}
		return ids[id]
	}
	for _, sp := range obs.DefaultTracer.Spans() {
		sp.Trace, sp.ID, sp.Parent = renumber(sp.Trace), renumber(sp.ID), renumber(sp.Parent)
		out.spans = append(out.spans, sp)
		if sp.Name == "orb.resend" {
			out.resends++
		}
	}
	st := fi.Stats()
	out.injected = st.Dropped + st.Duplicated + st.Delayed
	return out
}

// TestSimRunReplaysExactly runs the replay scenario twice in one process.
// Every span, latency histogram and load report of a simulated thread is on
// its virtual clock, so the two runs observe exactly the same thing: the
// same spans in the same order with the same times, and the same load and
// dispatch-latency snapshots.
func TestSimRunReplaysExactly(t *testing.T) {
	withTracing(t)
	first, second := runSimReplay(t, 7), runSimReplay(t, 7)
	if first.injected == 0 || first.resends == 0 || first.lat.Count == 0 {
		t.Fatalf("scenario exercised too little: %d faults injected, %d resends, %d single dispatches", first.injected, first.resends, first.lat.Count)
	}
	if len(first.spans) != len(second.spans) {
		t.Fatalf("runs recorded %d and %d spans", len(first.spans), len(second.spans))
	}
	for i := range first.spans {
		if first.spans[i] != second.spans[i] {
			t.Fatalf("span %d differs between runs:\n%+v\n%+v", i, first.spans[i], second.spans[i])
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("runs observed differently:\nload %v/%d, latency %+v\nload %v/%d, latency %+v",
			first.p95, first.depth, first.lat, second.p95, second.depth, second.lat)
	}
}
