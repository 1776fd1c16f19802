package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// The obs experiment checks the observability plane itself. Two cells (what
// recording costs on the round trip is benchmark/'s obs.recorder_overhead_us):
//
//   - retention: a mixed load with a known ≤5% interesting subset (designated
//     errors and designated-slow invocations); the recorder must keep ≥95%
//     of the interesting traces while the boring bulk recycles and the
//     retained set stays within its configured bound. TestObsPlaneGate
//     asserts these numbers.
//   - scrape: the cost of one /debug/federate render over a synthetic
//     multi-group repository — what a cluster-level Prometheus pays per
//     scrape instead of visiting every replica.
//
// Unlike the paper figures this one runs on real goroutines and wall clocks.

// ObsPoint is one cell of the obs experiment.
type ObsPoint struct {
	Cell string `json:"cell"` // retention | scrape

	// Retention row.
	Invocations         int     `json:"invocations,omitempty"`
	Interesting         int     `json:"interesting,omitempty"`
	RetainedInteresting int     `json:"retained_interesting,omitempty"`
	Recall              float64 `json:"recall,omitempty"`
	Boring              int     `json:"boring,omitempty"`
	BoringRetained      int     `json:"boring_retained"`
	RetainedCount       int     `json:"retained_count,omitempty"`
	RetainedBound       int     `json:"retained_bound,omitempty"`
	Recycled            uint64  `json:"recycled,omitempty"`

	// Scrape row.
	Groups    int     `json:"groups,omitempty"`
	Members   int     `json:"members,omitempty"`
	ScrapeNs  float64 `json:"scrape_ns,omitempty"`
	PageBytes int     `json:"page_bytes,omitempty"`
}

// obsWorkKind selects the servant's behavior per invocation.
const (
	obsWorkFast  = int32(0)
	obsWorkSlow  = int32(1)
	obsWorkError = int32(2)
)

func obsIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "obs_svc",
		Ops: []core.Operation{{
			Name:       "work",
			Params:     []core.Param{core.NewParam("kind", core.In, typecode.TCLong)},
			Result:     typecode.TCLong,
			Idempotent: true,
		}},
	}
}

var errObsDesignated = errors.New("designated interesting failure")

// obsServant answers fast, slow (a real wall-clock stall) or with an error,
// as the invocation asks.
type obsServant struct{ slow time.Duration }

func (s obsServant) Invoke(_ *poa.Context, op string, in []any) (any, []any, error) {
	if op != "work" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	switch in[0].(int32) {
	case obsWorkSlow:
		time.Sleep(s.slow)
	case obsWorkError:
		return nil, nil, errObsDesignated
	}
	return int32(0), nil, nil
}

// startObsServer runs the one-replica server of the obs cells on a
// wall-clock in-process fabric.
func startObsServer(fab *nexus.Inproc, slow time.Duration) (core.IOR, func()) {
	g := rts.NewChanGroup("obs-server", 1)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		p := poa.New(th, core.NewRouter(fab.NewEndpoint("obs-server")), nil)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("obs-server", obsIface(), obsServant{slow: slow})
		if err != nil {
			panic(err)
		}
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior := <-iorCh
	stop := func() {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint("obs-stopper")), nil, nil)
		if b, err := orb.Bind(ior, obsIface()); err == nil {
			b.Shutdown("obs done")
		}
		wg.Wait()
	}
	return ior, stop
}

// obsTracerOff restores the default tracer to its disabled ring state.
func obsTracerOff() {
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.DisableRecorder()
	obs.DefaultTracer.SetEnabled(false)
}

// runObsRetention drives the mixed load with a seeded ≤5% interesting subset
// through the recorder and scores the retention decision.
func runObsRetention(b *core.Binding, invocations int, slowThreshold time.Duration) ObsPoint {
	cfg := obs.RecorderConfig{FixedSlowNS: slowThreshold.Nanoseconds()}
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.EnableRecorder(cfg)
	defer obsTracerOff()

	rng := rand.New(rand.NewSource(41))
	nErr, nSlow := 0, 0
	for i := 0; i < invocations; i++ {
		kind := obsWorkFast
		switch r := rng.Float64(); {
		case r < 0.02:
			kind, nErr = obsWorkError, nErr+1
		case r < 0.04:
			kind, nSlow = obsWorkSlow, nSlow+1
		}
		b.Invoke("work", []any{kind})
	}
	obs.DefaultTracer.Flush()

	retained := obs.DefaultTracer.Retained()
	errKept, slowOnlyKept := 0, 0
	for _, rt := range retained {
		switch {
		case rt.Marks&obs.RetainError != 0:
			errKept++
		case rt.Marks&obs.RetainSlow != 0:
			slowOnlyKept++
		}
	}
	// Designated errors can only be retained by their error mark and
	// designated-slow invocations by the slow mark, so capped per-mark
	// counts score recall; anything beyond the designated totals is a
	// boring trace that slipped through (a scheduler stall pushing a fast
	// invocation over the threshold).
	keptInteresting := min(errKept, nErr) + min(slowOnlyKept, nSlow)
	interesting := nErr + nSlow
	pt := ObsPoint{
		Cell:        "retention",
		Invocations: invocations,
		Interesting: interesting, RetainedInteresting: keptInteresting,
		Boring:         invocations - interesting,
		BoringRetained: max(0, len(retained)-interesting),
		RetainedCount:  len(retained),
		RetainedBound:  256, // RecorderConfig default MaxTraces
		Recycled:       obs.DefaultTracer.RecycledTotal(),
	}
	if interesting > 0 {
		pt.Recall = float64(keptInteresting) / float64(interesting)
	}
	return pt
}

// runObsScrape prices one federation-page render over a synthetic
// repository of groups x members digest-reporting replicas.
func runObsScrape(groups, members, iters int) ObsPoint {
	repo := registry.NewRepository()
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("svc-%d", g)
		for m := 0; m < members; m++ {
			id := fmt.Sprintf("m%d", m)
			ior := core.IOR{Interface: "svc", Key: id, ServerSize: 1,
				Addrs: []string{fmt.Sprintf("inproc://%s-%s/1", name, id)}}
			if err := repo.RegisterMember(nil, name, id, ior.String()); err != nil {
				panic(err)
			}
			d := registry.Digest{
				Dispatches: uint64(1000*g + m), Sheds: uint64(m), Depth: m,
				P50: 0.001, P95: 0.002 * float64(m+1), P99: 0.005 * float64(m+1),
			}
			if _, err := repo.ReportLoad(nil, name, id, d.P95, int32(d.Depth), d.Encode()); err != nil {
				panic(err)
			}
		}
	}
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < iters; i++ {
		buf.Reset()
		if err := repo.WriteFederation(&buf); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	return ObsPoint{
		Cell: "scrape", Groups: groups, Members: members,
		ScrapeNs:  float64(elapsed.Nanoseconds()) / float64(iters),
		PageBytes: buf.Len(),
	}
}

// FigureObs runs every cell of the obs experiment. It owns the default
// tracer for the duration and leaves it disabled.
func FigureObs(quick bool) []ObsPoint {
	retentionN := 1500
	scrapeG, scrapeM, scrapeIters := 16, 8, 300
	if quick {
		retentionN = 400
		scrapeG, scrapeM, scrapeIters = 6, 4, 100
	}
	const slowSleep = 12 * time.Millisecond
	const slowThreshold = 4 * time.Millisecond

	fab := nexus.NewInproc()
	ior, stop := startObsServer(fab, slowSleep)
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("obs-client")), nil, nil)
	b, err := orb.Bind(ior, obsIface())
	if err != nil {
		panic(err)
	}

	return []ObsPoint{
		runObsRetention(b, retentionN, slowThreshold),
		runObsScrape(scrapeG, scrapeM, scrapeIters),
	}
}
