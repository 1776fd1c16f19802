package main

import (
	"bytes"
	"fmt"
	"math"

	"pardis"
	"pardis/internal/core"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// The client counts below are fixed, never derived from the machine, so
// that numbers compare across boxes: at most 2 threads and 2 connections
// per side.
const (
	echoBytes     = 64
	bulkElems     = 1 << 20 // doubles per direction: 8 MiB
	redistElems   = 256 << 10
	workTerms     = 2000
	pipelineDepth = 32
)

// workload is one named closed loop against the runtime's public surface.
type workload struct {
	name string
	why  string
	// ranks is the number of caller threads; they invoke collectively
	// (SPMD client) unless depth > 0, when each is an independent caller
	// keeping depth non-blocking invocations outstanding.
	ranks  int
	depth  int
	warmup int
	// payload is the argument bytes one operation delivers, in plus out.
	payload int64
	// tcp says which fabric the workload runs on (loopback TCP, else the
	// in-process one).
	tcp   bool
	start func(e *env) (*instance, error)
	// sample is one invocation as it goes on the wire, for the replays;
	// nil when the workload makes none.
	sample func(seed uint64) *opSample
	// provisional, when set, says why the workload's numbers do not repeat
	// (on this commit, or on this box); it is then run and reported but
	// left out of BENCHMARK.json and never called worse by -compare.
	provisional string
}

// instance is a workload set up in this process: servers running, callers
// not yet bound.
type instance struct {
	// newCaller builds rank's caller; it is called once per rank, from
	// that rank's goroutine, and is collective across the ranks.
	newCaller func(rank int) (caller, error)
	// served is closed when every server rank has left ImplIsReady; nil
	// when the workload has no server.
	served <-chan struct{}
}

// caller is one client thread's handle on the workload.
type caller interface {
	// op runs closed-loop operation i and reports whether its result was
	// correct; full asks for the exhaustive check.
	op(i int64, full bool) bool
	// shutdown asks the servers to leave ImplIsReady.
	shutdown() error
}

// nbCaller is a caller that can keep operations outstanding.
type nbCaller interface {
	caller
	issue(i int64) error
	// complete waits for the oldest outstanding operation and reports
	// whether its result was correct.
	complete() bool
}

var workloads = []*workload{
	{
		name: "rtt64_tcp", ranks: 1, warmup: 500, payload: 2 * echoBytes, tcp: true,
		why:    "64 B echo over loopback TCP: per-message cost of every layer plus sockets and wake-ups, bulk path idle",
		start:  func(e *env) (*instance, error) { return startEcho(e, true) },
		sample: echoSample,
	},
	{
		name: "rtt64_inproc", ranks: 1, warmup: 500, payload: 2 * echoBytes,
		why:    "same echo over the in-process fabric: kernel removed, so stub/core/pgiop/typecode/poa CPU is nearly all of it",
		start:  func(e *env) (*instance, error) { return startEcho(e, false) },
		sample: echoSample,
	},
	{
		name: "spmd_ping", ranks: 2, warmup: 500, payload: 8,
		provisional: "the SPMD agreement backlog (README.md) amplifies the box's drift: its latency spread ran from 3 % to 25 % over three ten-run sets",
		why:         "2-rank SPMD client pinging a 2-rank SPMD object: POA agreement and the rts collective dominate, no dsequence",
		start:       startPing,
		sample: func(uint64) *opSample {
			return &opSample{op: &PingIDL().Ops[0], in: []any{int32(41), nil}, out: []any{nil, int32(42)}}
		},
	},
	{
		name: "bulk8m_spmd_tcp", ranks: 2, warmup: 20, payload: 2 * 8 * bulkElems, tcp: true,
		provisional: "the SPMD agreement backlog (README.md) makes every number here swing severalfold from run to run",
		why:         "8 MiB dsequence each way, Proportions(1,3) to BLOCK over TCP: bytes dominate (cdr bulk, dseq, dist, streamed chunks)",
		start:       startScale,
		sample: func(uint64) *opSample {
			uneven := pardis.Proportions(1, 3)
			return &opSample{
				op: &ScalerIDL().Ops[0], in: []any{2.0, nil, nil}, out: []any{nil, nil, nil},
				distIns:  []pgiop.DistInSpec{{Param: 1, N: bulkElems, Layout: uneven.Layout(bulkElems, 2)}},
				distOuts: []pgiop.DistOutSpec{{Param: 2, Tmpl: uneven}},
				outLens:  []pgiop.OutLen{{Param: 2, N: bulkElems, Layout: pardis.Block().Layout(bulkElems, 2)}},
			}
		},
	},
	{
		name: "serve_pipelined_tcp", ranks: 2, depth: pipelineDepth, warmup: 500, payload: 12, tcp: true,
		why:   "2 callers x 32 outstanding InvokeNB on one pooled object: the rtt64_tcp layers used for throughput, not latency",
		start: startWork,
		sample: func(uint64) *opSample {
			return &opSample{op: &WorkerIDL().Ops[0], in: []any{int32(workTerms), nil}, out: []any{nil, harmonic(workTerms)}}
		},
	},
	{
		name: "redist_cyclic", ranks: 2, warmup: 20, payload: 2 * 8 * redistElems,
		provisional: "it keeps both vCPUs busy, so it follows the shared host's load: its median ran from 8.8 to 16 ms in one evening on the box this was written on",
		why:         "BLOCK to CYCLIC and back on 256 Ki doubles: 262144 one-element runs, the per-run cost a bulk win can hide",
		start:       startRedist,
	},
}

// mustWorkload finds a workload by name; an unknown name ends the command.
func mustWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	fatalf("unknown workload %q", name)
	return nil
}

// newEndpoint makes one endpoint of the workload's fabric.
func newEndpoint(e *env, fab *nexus.Inproc, name string) (nexus.Endpoint, error) {
	if fab != nil {
		return e.endpoint(fab.NewEndpoint(name), name), nil
	}
	ep, err := pardis.NewTCPEndpoint("")
	if err != nil {
		return nil, err
	}
	return e.endpoint(ep, name), nil
}

// reg is what a server goroutine reports once its object is registered.
type reg struct {
	ior core.IOR
	err error
}

// bound is what every ORB caller shares: the binding it shuts the servers
// down through.
type bound struct{ binding *core.Binding }

func (b bound) shutdown() error { return b.binding.Shutdown("benchmark done") }

// serveSingle runs a one-thread server for a single object: register is
// called on the server goroutine, which then sits in ImplIsReady.
func serveSingle(ep nexus.Endpoint, register func(*poa.POA) (core.IOR, error)) (core.IOR, <-chan struct{}, error) {
	regCh := make(chan reg, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		th := pardis.NewChanGroup("server", 1).Thread(0)
		adapter := pardis.NewPOA(th, pardis.NewRouter(ep), nil)
		ior, err := register(adapter)
		regCh <- reg{ior, err}
		if err == nil {
			adapter.ImplIsReady()
		}
	}()
	r := <-regCh
	return r.ior, served, r.err
}

// serveSPMD runs a 2-thread SPMD server, one endpoint per thread.
func serveSPMD(e *env, fab *nexus.Inproc, register func(*poa.POA, int) (core.IOR, error)) (core.IOR, <-chan struct{}, error) {
	regCh := make(chan reg, 2)
	served := make(chan struct{})
	go func() {
		defer close(served)
		pardis.NewChanGroup("server", 2).Run(func(th rts.Thread) {
			ep, err := newEndpoint(e, fab, fmt.Sprintf("server-%d", th.Rank()))
			if err != nil {
				// Registration is collective: a thread that cannot take
				// part would hang its sibling, so the process gives up.
				fatalf("server endpoint: %v", err)
			}
			adapter := pardis.NewPOA(th, pardis.NewRouter(ep), nil)
			ior, err := register(adapter, th.Rank())
			if th.Rank() == 0 {
				regCh <- reg{ior, err}
			}
			if err != nil {
				return
			}
			th.Barrier()
			adapter.ImplIsReady()
		})
	}()
	r := <-regCh
	return r.ior, served, r.err
}

// --- rtt64_tcp, rtt64_inproc --------------------------------------------------

type echoImpl struct{}

func (echoImpl) Echo(_ *poa.Context, x []byte) ([]byte, error) { return x, nil }

func echoSample(seed uint64) *opSample {
	x := seededBytes(seed, 0)
	return &opSample{op: &EchoIDL().Ops[0], in: []any{x, nil}, out: []any{nil, x}}
}

// seededBytes is the i-th echo payload.
func seededBytes(seed uint64, i int) []byte {
	b := make([]byte, echoBytes)
	for j := range b {
		b[j] = byte(splitmix64(seed ^ uint64(i*echoBytes+j)))
	}
	return b
}

type echoCaller struct {
	bound
	proxy *Echo
	in    [16][]byte
}

func startEcho(e *env, tcp bool) (*instance, error) {
	var fab *nexus.Inproc
	if !tcp {
		fab = pardis.NewInproc()
	}
	sep, err := newEndpoint(e, fab, "server-0")
	if err != nil {
		return nil, err
	}
	ior, served, err := serveSingle(sep, func(a *poa.POA) (core.IOR, error) {
		return a.RegisterSingle("echo-1", EchoIDL(), e.servant(NewEchoSkeleton(echoImpl{}), 0))
	})
	if err != nil {
		return nil, err
	}
	return &instance{served: served, newCaller: func(int) (caller, error) {
		cep, err := newEndpoint(e, fab, "client-0")
		if err != nil {
			return nil, err
		}
		proxy, err := BindEcho(pardis.NewORB(pardis.NewRouter(cep), nil, nil), ior)
		if err != nil {
			return nil, err
		}
		c := &echoCaller{bound: bound{proxy.Binding()}, proxy: proxy}
		for i := range c.in {
			c.in[i] = seededBytes(e.seed, i)
		}
		return c, nil
	}}, nil
}

func (c *echoCaller) op(i int64, _ bool) bool {
	x := c.in[i%int64(len(c.in))]
	y, err := c.proxy.Echo(x)
	return err == nil && bytes.Equal(x, y)
}

// --- spmd_ping ----------------------------------------------------------------

type pingImpl struct{}

func (pingImpl) Ping(_ *poa.Context, k int32) (int32, error) { return k + 1, nil }

type pingCaller struct {
	bound
	proxy *Ping
	base  int32
}

func startPing(e *env) (*instance, error) {
	fab := pardis.NewInproc()
	ior, served, err := serveSPMD(e, fab, func(a *poa.POA, rank int) (core.IOR, error) {
		return a.RegisterSPMD("ping-1", PingIDL(), e.servant(NewPingSkeleton(pingImpl{}), rank))
	})
	if err != nil {
		return nil, err
	}
	group := pardis.NewChanGroup("client", 2)
	return &instance{served: served, newCaller: func(rank int) (caller, error) {
		cep, err := newEndpoint(e, fab, fmt.Sprintf("client-%d", rank))
		if err != nil {
			return nil, err
		}
		proxy, err := SPMDBindPing(pardis.NewORB(pardis.NewRouter(cep), group.Thread(rank), nil), ior)
		if err != nil {
			return nil, err
		}
		return &pingCaller{bound: bound{proxy.Binding()}, proxy: proxy, base: int32(splitmix64(e.seed) >> 40)}, nil
	}}, nil
}

func (c *pingCaller) op(i int64, _ bool) bool {
	k := c.base + int32(i)
	r, err := c.proxy.Ping(k)
	return err == nil && r == k+1
}

// --- bulk8m_spmd_tcp ----------------------------------------------------------

type scaleImpl struct{}

func (scaleImpl) Scale(ctx *poa.Context, k float64, x *dseq.DSeq[float64]) (*dseq.DSeq[float64], error) {
	y := dseq.NewFromLayout[float64](ctx.Thread, x.DLayout(), dseq.Float64Codec{})
	in, out := x.Local(), y.Local()
	for i, v := range in {
		out[i] = k * v
	}
	return y, nil
}

type scaleCaller struct {
	bound
	proxy *Scaler
	x     *dseq.DSeq[float64]
	rank  int
	seed  uint64
}

// bulkValue is element g of the seeded input vector; doubling it is exact.
func bulkValue(seed uint64, g int) float64 {
	return float64(splitmix64(seed^uint64(g)) >> 12)
}

func startScale(e *env) (*instance, error) {
	ior, served, err := serveSPMD(e, nil, func(a *poa.POA, rank int) (core.IOR, error) {
		return a.RegisterSPMD("scaler-1", ScalerIDL(), e.servant(NewScalerSkeleton(scaleImpl{}), rank))
	})
	if err != nil {
		return nil, err
	}
	group := pardis.NewChanGroup("client", 2)
	// The client holds both vectors 1:3 while the server default is BLOCK,
	// so each direction is three moves (2+2+4 MiB), not the identity.
	tmpl := pardis.Proportions(1, 3)
	return &instance{served: served, newCaller: func(rank int) (caller, error) {
		cep, err := newEndpoint(e, nil, fmt.Sprintf("client-%d", rank))
		if err != nil {
			return nil, err
		}
		th := group.Thread(rank)
		proxy, err := SPMDBindScaler(pardis.NewORB(pardis.NewRouter(cep), th, nil), ior)
		if err != nil {
			return nil, err
		}
		if err := proxy.Binding().SetOutDist("scale", 2, tmpl); err != nil {
			return nil, err
		}
		x := dseq.New[float64](th, bulkElems, tmpl, dseq.Float64Codec{})
		for i := range x.Local() {
			x.Local()[i] = bulkValue(e.seed, x.DLayout().GlobalIndex(rank, i))
		}
		return &scaleCaller{bound: bound{proxy.Binding()}, proxy: proxy, x: x, rank: rank, seed: e.seed}, nil
	}}, nil
}

// op checks y[g] == 2*x[g] by global index, which also proves the two
// redistributions compose to a permutation: on every element when full,
// on 64 seeded ones otherwise.
func (c *scaleCaller) op(i int64, full bool) bool {
	y, err := c.proxy.Scale(2, c.x)
	if err != nil || y.GlobalLen() != bulkElems {
		return false
	}
	out, layout := y.Local(), y.DLayout()
	if len(out) != layout.Count(c.rank) || len(out) == 0 {
		return false
	}
	if full {
		for j, v := range out {
			if v != 2*bulkValue(c.seed, layout.GlobalIndex(c.rank, j)) {
				return false
			}
		}
		return true
	}
	for s := uint64(0); s < 64; s++ {
		j := int(splitmix64(c.seed^uint64(i)<<8^s) % uint64(len(out)))
		if out[j] != 2*bulkValue(c.seed, layout.GlobalIndex(c.rank, j)) {
			return false
		}
	}
	return true
}

// --- serve_pipelined_tcp ------------------------------------------------------

type workImpl struct{}

func harmonic(n int32) float64 {
	sum := 0.0
	for i := int32(1); i <= n; i++ {
		sum += 1 / float64(i)
	}
	return sum
}

func (workImpl) Work(_ *poa.Context, n int32) (float64, error) { return harmonic(n), nil }

type workCaller struct {
	bound
	proxy *Worker
	want  float64
	// ring of outstanding futures, oldest at head.
	ring    [pipelineDepth]future.Future[float64]
	head, n int
}

func startWork(e *env) (*instance, error) {
	sep, err := newEndpoint(e, nil, "server-0")
	if err != nil {
		return nil, err
	}
	ior, served, err := serveSingle(sep, func(a *poa.POA) (core.IOR, error) {
		a.SetDispatchAuto(1, 4)
		return a.RegisterSingle("worker-1", WorkerIDL(), e.servant(NewWorkerSkeleton(workImpl{}), 0))
	})
	if err != nil {
		return nil, err
	}
	return &instance{served: served, newCaller: func(rank int) (caller, error) {
		cep, err := newEndpoint(e, nil, fmt.Sprintf("client-%d", rank))
		if err != nil {
			return nil, err
		}
		proxy, err := BindWorker(pardis.NewORB(pardis.NewRouter(cep), nil, nil), ior)
		if err != nil {
			return nil, err
		}
		return &workCaller{bound: bound{proxy.Binding()}, proxy: proxy, want: harmonic(workTerms)}, nil
	}}, nil
}

func (c *workCaller) issue(int64) error {
	f, err := c.proxy.WorkNB(workTerms)
	if err != nil {
		return err
	}
	c.ring[(c.head+c.n)%pipelineDepth] = f
	c.n++
	return nil
}

func (c *workCaller) complete() bool {
	f := c.ring[c.head]
	c.head = (c.head + 1) % pipelineDepth
	c.n--
	sum, err := f.Get()
	return err == nil && math.Float64bits(sum) == math.Float64bits(c.want)
}

func (c *workCaller) op(i int64, _ bool) bool { return c.issue(i) == nil && c.complete() }

// --- redist_cyclic ------------------------------------------------------------

type redistCaller struct {
	s    *dseq.DSeq[float64]
	orig []float64
}

func startRedist(e *env) (*instance, error) {
	group := pardis.NewChanGroup("redist", 2)
	return &instance{newCaller: func(rank int) (caller, error) {
		s := dseq.New[float64](group.Thread(rank), redistElems, pardis.Block(), dseq.Float64Codec{})
		for i := range s.Local() {
			s.Local()[i] = bulkValue(e.seed, s.DLayout().GlobalIndex(rank, i))
		}
		return &redistCaller{s: s, orig: append([]float64(nil), s.Local()...)}, nil
	}}, nil
}

// op must leave the sequence bit-identical to its start.
func (c *redistCaller) op(int64, bool) bool {
	c.s.Redistribute(pardis.Cyclic())
	c.s.Redistribute(pardis.Block())
	got := c.s.Local()
	if len(got) != len(c.orig) {
		return false
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(c.orig[i]) {
			return false
		}
	}
	return true
}

func (c *redistCaller) shutdown() error { return nil }
