package bench

import (
	"runtime"
	"sync"
	"time"

	"pardis/internal/bench/benchidl"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// FaninPoint is one row of the connection-scale fan-in figure: many
// concurrent clients invoking one 4-rank SPMD server over real TCP, either
// multiplexing their channels over shared transports ("mux") or opening one
// socket per client ("per-conn", the pre-multiplexing shape).
type FaninPoint struct {
	Mode           string  `json:"mode"`
	Clients        int     `json:"clients"`
	ReqPerSec      float64 `json:"req_per_sec"`
	BytesPerClient float64 `json:"resident_bytes_per_client"`
	Conns          int     `json:"physical_connections"` // server-side inbound sockets
}

// FaninLevels is the full client sweep; FaninQuickLevels the -quick trim.
var (
	FaninLevels      = []int{1_000, 10_000, 100_000}
	FaninQuickLevels = []int{1_000, 10_000}

	// FaninBaselineClients caps the per-conn baseline: every client costs
	// three file descriptors (its listener plus both ends of its socket),
	// so the baseline hits OS limits at scales the multiplexed transport
	// shrugs off — which is the point of the figure.
	FaninBaselineClients = 512

	// faninWorkers bounds the driver goroutines; each owns a shard of
	// clients (and, in mux mode, the one transport those clients share).
	faninWorkers = 64

	// faninPipeline is how many requests each client keeps in flight
	// during the timed phase.
	faninPipeline = 4
)

// Fanin measures sustained request rate and resident bytes per client at
// each mux level, plus the capped per-conn baseline for the memory ratio.
func Fanin(levels []int, baseline int) []FaninPoint {
	pts := make([]FaninPoint, 0, len(levels)+1)
	for _, n := range levels {
		pts = append(pts, faninRun("mux", n))
	}
	pts = append(pts, faninRun("per-conn", baseline))
	return pts
}

// faninServant implements bench.idl's fanin.
type faninServant struct{}

func (faninServant) Ping(_ *poa.Context, x int32) (int32, error) { return x + 1, nil }

// faninServer starts the 4-rank SPMD server. All four ranks' ORB endpoints
// are channels of one shared TCP transport — the server side of the fan-in
// holds one listener regardless of rank count.
func faninServer() (core.IOR, *nexus.TCPTransport, func()) {
	const ranks = 4
	srvT, err := nexus.NewTCPTransport("")
	if err != nil {
		panic(err)
	}
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("fanin-srv", ranks).Run(func(th rts.Thread) {
			p := poa.New(th, core.NewRouter(srvT.NewChannel()), nil)
			p.PollInterval = 50e-6
			ior := must(benchidl.RegisterFaninSPMD(p, "fanin-1", faninServant{}))
			if th.Rank() == 0 {
				iorCh <- ior
			}
			p.ImplIsReady()
		})
	}()
	ior := <-iorCh
	return ior, srvT, wg.Wait
}

func faninRun(mode string, n int) FaninPoint {
	ior, srvT, stop := faninServer()

	workers := faninWorkers
	if n < workers {
		workers = n
	}
	shard := func(w int) (int, int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		return lo, hi
	}
	eachWorker := func(body func(w, lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo, hi := shard(w)
				body(w, lo, hi)
			}(w)
		}
		wg.Wait()
	}

	// In mux mode one transport per worker carries that worker's whole
	// client shard; per-conn gives every client its own transport.
	trans := make([]*nexus.TCPTransport, workers)
	if mode == "mux" {
		for w := range trans {
			t, err := nexus.NewTCPTransport("")
			if err != nil {
				panic(err)
			}
			trans[w] = t
		}
	}
	clients := make([]*benchidl.Fanin, n)
	eps := make([]nexus.Endpoint, n)
	eachWorker(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			var ep nexus.Endpoint
			if mode == "mux" {
				ep = trans[w].NewChannel()
			} else {
				var err error
				ep, err = nexus.NewTCPEndpoint("")
				if err != nil {
					panic(err)
				}
			}
			clients[i] = must(benchidl.SPMDBindFanin(core.NewORB(core.NewRouter(ep), nil, nil), ior))
			eps[i] = ep
		}
	})

	// Memory is measured as the bytes each client's *connection* costs:
	// the resident delta between all clients fully constructed (bindings
	// in place, no socket open yet — ORB and binding state is identical
	// in both modes) and every physical connection established. The
	// connections are raised with a junk frame the server router drops,
	// so the delta holds sockets, reader goroutines and conn buffers —
	// not protocol state, which both modes pay identically per client.
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rank0 := nexus.Addr(ior.Addrs[0])
	eachWorker(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := eps[i].Send(rank0, []byte{0xff}); err != nil {
				panic(err)
			}
		}
	})
	// A send returns once the client's kernel has the bytes; the server
	// counts a connection only when its reader goroutine has processed the
	// hello. Wait (bounded) until every client transport's connection is
	// registered, so neither the count nor the resident bytes sampled below
	// depend on how far the readers have been scheduled.
	wantConns := n
	if mode == "mux" {
		wantConns = workers
	}
	for deadline := time.Now().Add(10 * time.Second); srvT.ConnCount() < wantConns && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perClient := 0.0
	if after, before := m1.HeapAlloc+m1.StackInuse, m0.HeapAlloc+m0.StackInuse; after > before {
		perClient = float64(after-before) / float64(n)
	}
	conns := srvT.ConnCount()

	// Warm round: touches the whole invoke path once per client so the
	// timed phase measures the sustained rate, not first-use setup.
	eachWorker(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			must(clients[i].Ping(int32(i)))
		}
	})

	// Timed phase: every client keeps faninPipeline requests in flight on
	// its channel; replies interleave freely on the shared sockets.
	start := time.Now()
	eachWorker(func(w, lo, hi int) {
		replies := make([]future.Future[int32], 0, (hi-lo)*faninPipeline)
		for i := lo; i < hi; i++ {
			for k := 0; k < faninPipeline; k++ {
				replies = append(replies, must(clients[i].PingNB(int32(k))))
			}
		}
		for _, r := range replies {
			r.MustGet()
		}
	})
	elapsed := time.Since(start).Seconds()

	check(clients[0].Binding().Shutdown("fanin done"))
	stop()
	eachWorker(func(w, lo, hi int) {
		if mode == "mux" {
			trans[w].Close()
			return
		}
		for i := lo; i < hi; i++ {
			clients[i].Binding().ORB().Router().Close()
		}
	})
	srvT.Close()

	return FaninPoint{
		Mode:           mode,
		Clients:        n,
		ReqPerSec:      float64(n*faninPipeline) / elapsed,
		BytesPerClient: perClient,
		Conns:          conns,
	}
}
