package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
)

// teardownGrace caps the wait for the servers to leave ImplIsReady after
// Shutdown; past it the child exits and the kernel reaps what is left.
const teardownGrace = 2 * time.Second

// env is what a workload's set-up is handed: the seed its inputs derive
// from and, in the traced pass, the decorators to install.
type env struct {
	seed uint64
	tr   *tracer // nil in the untraced pass
}

func (e *env) endpoint(ep nexus.Endpoint, name string) nexus.Endpoint {
	if e.tr == nil {
		return ep
	}
	return e.tr.wrapEndpoint(ep, name)
}

func (e *env) servant(s poa.Servant, rank int) poa.Servant {
	if e.tr == nil {
		return s
	}
	return e.tr.wrapServant(s, rank)
}

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Ops       int64   `json:"ops"` // verified operations inside the measured window
	Seconds   float64 `json:"seconds"`
	// Values holds every metric this repetition measured, end-to-end and
	// per-layer alike, by name; a metric it could not measure is absent.
	Values map[string]float64 `json:"values"`
	Error  string             `json:"error,omitempty"`
}

// snapshot is the process state read at each edge of the measured window.
type snapshot struct {
	t        time.Time
	mem      runtime.MemStats
	cpu      time.Duration
	counters map[string]float64
}

// takeSnapshot orders its reads so that its own allocations (the counter
// map) fall outside the window on both edges.
func takeSnapshot(opening bool) *snapshot {
	s := &snapshot{}
	if opening {
		s.counters = readCounters()
		runtime.ReadMemStats(&s.mem)
		s.cpu = cpuTime()
		s.t = time.Now()
		return s
	}
	s.t = time.Now()
	s.cpu = cpuTime()
	runtime.ReadMemStats(&s.mem)
	s.counters = readCounters()
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCounters reads every counter and gauge of obs.Default by name, at run
// time, so a metric the runtime renames or drops reads as missing instead of
// breaking the build.
func readCounters() map[string]float64 {
	m := map[string]float64{}
	obs.Default.Each(func(name string, v any) {
		switch c := v.(type) {
		case *obs.Counter:
			m[name] = float64(c.Load())
		case *obs.Gauge:
			m[name] = float64(c.Load())
		case obs.GaugeFunc:
			m[name] = c()
		}
	})
	return m
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// sliceLen is the least length of the slices the window is cut into for
// ops_per_s; a slice ends at the first operation to complete past it.
const sliceLen = 100 * time.Millisecond

// pace turns one caller's completions into the rates of consecutive slices.
// ops_per_s is their median: operations over measured time, as the issue
// defines it, but taken slice by slice so that a stall of the box shorter
// than half the window does not move it. (caller.lat_mean_us keeps the
// plain mean, stalls and all.)
type pace struct {
	start time.Time
	ops   int
	rates []float64
}

func newPace(start time.Time, window time.Duration) *pace {
	return &pace{start: start, rates: make([]float64, 0, window/sliceLen+1)}
}

// done records one completed operation.
func (p *pace) done(now time.Time) {
	p.ops++
	if d := now.Sub(p.start); d >= sliceLen {
		p.rates = append(p.rates, float64(p.ops)/d.Seconds())
		p.start, p.ops = now, 0
	}
}

// meter accumulates the measured window as the callers see it.
type meter struct {
	lat hist
	// rate is the callers' median slice rates, summed.
	rate      float64
	attempted int64
	failed    atomic.Int64 // any rank may find its share of a result wrong
	open      *snapshot
	close     *snapshot
	setup     time.Duration
}

// runChild sets the workload up in this process, measures it for dur and
// returns what it saw. spawned is when the parent started this process.
func runChild(w *workload, seed uint64, dur time.Duration, traced bool, spawned time.Time) *repResult {
	res := &repResult{Workload: w.name, Traced: traced, Values: map[string]float64{}}
	e := &env{seed: seed}
	if traced {
		e.tr = newTracer()
	}
	inst, err := w.start(e)
	if err != nil {
		res.Error = fmt.Sprintf("set-up: %v", err)
		res.Attempted, res.Failed = 1, 1
		return res
	}
	m := &meter{}
	var lead caller
	if w.depth > 0 {
		lead, err = measurePipelined(w, inst, e, dur, spawned, m)
	} else {
		lead, err = measureLockstep(w, inst, e, dur, spawned, m)
	}
	if err != nil {
		res.Error = err.Error()
		res.Attempted, res.Failed = max(m.attempted, 1), max(m.attempted, 1)
		return res
	}
	if rss, ok := peakRSSMiB(); ok {
		res.Values["peak_rss_MiB"] = rss
	}
	// The traced child also shuts the servers down, to time it.
	if traced && inst.served != nil {
		t0 := time.Now()
		if err := lead.shutdown(); err != nil {
			res.Error = fmt.Sprintf("shutdown: %v", err)
		}
		select {
		case <-inst.served:
		case <-time.After(teardownGrace):
		}
		// As measured: a server that is still running when the grace ends
		// reads a little over the cap.
		res.Values["poa.teardown_s"] = time.Since(t0).Seconds()
	}
	res.Attempted = m.attempted
	res.Failed = min(m.failed.Load(), m.attempted)
	res.Ops = int64(m.lat.n)
	res.Seconds = m.close.t.Sub(m.open.t).Seconds()
	windowMetrics(w, m, res)
	if e.tr != nil {
		e.tr.fold(w, res)
		if err := e.tr.writeSpans(w.name); err != nil && res.Error == "" {
			res.Error = fmt.Sprintf("trace file: %v", err)
		}
	}
	return res
}

// windowMetrics turns the two snapshots and the latency histogram into the
// end-to-end metrics and the process- and counter-sourced layer metrics.
func windowMetrics(w *workload, m *meter, res *repResult) {
	v := res.Values
	ops, sec := float64(res.Ops), res.Seconds
	v["setup_s"] = m.setup.Seconds()
	if ops == 0 || sec <= 0 {
		return
	}
	v["lat_p50_us"] = m.lat.quantile(0.50) / 1e3
	rate := m.rate
	if rate == 0 { // a window shorter than one slice
		rate = ops / sec
	}
	v["ops_per_s"] = rate
	v["payload_MiB_per_s"] = rate * float64(w.payload) / (1 << 20)
	a, b := &m.open.mem, &m.close.mem
	v["alloc_bytes_per_op"] = float64(b.TotalAlloc-a.TotalAlloc) / ops
	v["allocs_per_op"] = float64(b.Mallocs-a.Mallocs) / ops

	v["caller.lat_mean_us"] = m.lat.mean() / 1e3
	v["caller.lat_p90_us"] = m.lat.quantile(0.90) / 1e3
	v["caller.lat_p99_us"] = m.lat.quantile(0.99) / 1e3
	v["proc.cpu_us_per_op"] = float64(m.close.cpu-m.open.cpu) / 1e3 / ops
	v["go.gc_cycles_per_s"] = float64(b.NumGC-a.NumGC) / sec
	v["go.gc_pause_us_per_op"] = float64(b.PauseTotalNs-a.PauseTotalNs) / 1e3 / ops
	counterMetrics(m.open.counters, m.close.counters, ops, w.tcp, v)
}

// measureLockstep drives a closed loop of w.ranks callers that invoke
// together: one caller, or the ranks of an SPMD client. The ranks run freely,
// as the threads of an SPMD program do, and meet only where the window
// opens and closes. Rank 0 leads: it times its own view of every operation
// and decides where each stretch of operations ends by publishing the index
// to stop before. That is safe because the operations are collective — no
// rank can finish operation i before every rank has started it — so when
// rank 0 is about to start i, no other rank is past i.
func measureLockstep(w *workload, inst *instance, e *env, dur time.Duration, spawned time.Time, m *meter) (caller, error) {
	var stopBefore atomic.Int64
	next := make([]chan bool, w.ranks) // a stretch to run; the value asks for full checks
	arrived := make(chan error, w.ranks)
	for r := 1; r < w.ranks; r++ {
		next[r] = make(chan bool)
		go func(rank int) {
			c, err := inst.newCaller(rank)
			arrived <- err
			if err != nil {
				return
			}
			i := int64(0)
			for full := range next[rank] {
				for ; i < stopBefore.Load(); i++ {
					if !c.op(i, full) {
						m.failed.Add(1)
					}
				}
				arrived <- nil
			}
		}(r)
	}
	barrier := func() error {
		var first error
		for r := 1; r < w.ranks; r++ {
			if err := <-arrived; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	defer func() {
		for r := 1; r < w.ranks; r++ {
			close(next[r])
		}
	}()

	c, err := inst.newCaller(0)
	if berr := barrier(); err == nil {
		err = berr
	}
	if err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	i := int64(0)
	// stretch starts every rank on operations [i, i+n) — or, with n < 0,
	// on operations until the deadline passes — runs rank 0's share through
	// each, and waits for the other ranks to finish theirs.
	stretch := func(n int64, full bool, deadline time.Time, each func(ok bool, t0, t1 time.Time)) error {
		stopBefore.Store(i + n)
		if n < 0 {
			stopBefore.Store(math.MaxInt64)
		}
		for r := 1; r < w.ranks; r++ {
			next[r] <- full
		}
		for ; i < stopBefore.Load(); i++ {
			t0 := time.Now()
			if n < 0 && !t0.Before(deadline) {
				stopBefore.Store(i + 1)
			}
			ok := c.op(i, full)
			each(ok, t0, time.Now())
		}
		return barrier()
	}
	var untimedErr error
	untimed := func(ok bool, _, _ time.Time) {
		if !ok && untimedErr == nil {
			untimedErr = fmt.Errorf("operation %d failed its check outside the window", i)
		}
	}

	err = stretch(1, true, time.Time{}, func(ok bool, _, _ time.Time) {
		m.attempted++
		if ok {
			m.setup = time.Since(spawned)
		} else {
			untimedErr = fmt.Errorf("first operation failed its check")
		}
	})
	if err == nil {
		err = stretch(int64(w.warmup), false, time.Time{}, untimed)
	}
	if err == nil {
		err = untimedErr
	}
	if err != nil {
		m.failed.Add(1)
		return nil, err
	}

	var calls *eventLog
	if e.tr != nil {
		calls = e.tr.callLog(0)
		e.tr.on.Store(true)
	}
	runtime.GC()
	m.open = takeSnapshot(true)
	paced := newPace(m.open.t, dur)
	err = stretch(-1, false, m.open.t.Add(dur), func(ok bool, t0, t1 time.Time) {
		m.attempted++
		paced.done(t1)
		if ok {
			m.lat.add(int64(t1.Sub(t0)))
		} else {
			m.failed.Add(1)
		}
		if calls != nil {
			calls.add(event{kind: evCall, t0: int64(t0.Sub(e.tr.epoch)), t1: int64(t1.Sub(e.tr.epoch))})
		}
	})
	m.close = takeSnapshot(false)
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	if err != nil {
		return nil, err
	}
	if len(paced.rates) > 0 {
		m.rate = median(paced.rates)
	}
	// The last operation is checked in full, like the first; it is
	// attempted and may fail, but is outside the timed window.
	err = stretch(1, true, time.Time{}, func(ok bool, _, _ time.Time) {
		m.attempted++
		if !ok {
			m.failed.Add(1)
		}
	})
	return c, err
}

// measurePipelined drives w.ranks independent callers that each keep
// w.depth non-blocking invocations outstanding; an operation's latency runs
// from its issue to the return of the Get that collects it.
func measurePipelined(w *workload, inst *instance, e *env, dur time.Duration, spawned time.Time, m *meter) (caller, error) {
	callers := make([]nbCaller, w.ranks)
	for r := range callers {
		c, err := inst.newCaller(r)
		if err != nil {
			return nil, fmt.Errorf("bind: %w", err)
		}
		callers[r] = c.(nbCaller)
	}
	// The first operation ends set-up: fully verified, and timed from the
	// moment the parent spawned this process.
	m.attempted++
	if !callers[0].op(0, true) {
		m.failed.Add(1)
		return nil, fmt.Errorf("first operation failed its check")
	}
	m.setup = time.Since(spawned)
	// each runs body once per caller, concurrently, and waits for all.
	each := func(body func(r int, c nbCaller)) {
		var wg sync.WaitGroup
		for r, c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(r, c)
			}()
		}
		wg.Wait()
	}
	var warmFailed atomic.Bool
	each(func(_ int, c nbCaller) {
		for i := 0; i < w.warmup/w.ranks; i++ {
			if !c.op(int64(i), false) {
				warmFailed.Store(true)
			}
		}
	})
	if warmFailed.Load() {
		return nil, fmt.Errorf("warm-up operation failed its check")
	}

	if e.tr != nil {
		e.tr.on.Store(true)
	}
	runtime.GC()
	m.open = takeSnapshot(true)
	deadline := m.open.t.Add(dur)
	lats := make([]hist, w.ranks)
	attempted := make([]int64, w.ranks)
	paces := make([]*pace, w.ranks)
	for r := range paces {
		paces[r] = newPace(m.open.t, dur)
	}
	each(func(r int, c nbCaller) {
		var calls *eventLog
		if e.tr != nil {
			calls = e.tr.callLog(r)
		}
		issued := make([]time.Time, w.depth)
		head, n := 0, 0
		collect := func() {
			ok := c.complete()
			now := time.Now()
			paces[r].done(now)
			d := now.Sub(issued[head])
			head, n = (head+1)%w.depth, n-1
			if ok {
				lats[r].add(int64(d))
			} else {
				m.failed.Add(1)
			}
		}
		for i := int64(0); ; i++ {
			if n == w.depth {
				collect()
			}
			now := time.Now()
			if !now.Before(deadline) {
				break
			}
			attempted[r]++
			err := c.issue(i)
			if calls != nil {
				calls.add(event{kind: evCall, t0: int64(now.Sub(e.tr.epoch)), t1: e.tr.now()})
			}
			if err != nil {
				m.failed.Add(1)
				continue
			}
			issued[(head+n)%w.depth] = now
			n++
		}
		for n > 0 {
			collect()
		}
	})
	m.close = takeSnapshot(false)
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	for r := range lats {
		m.lat.merge(&lats[r])
		m.attempted += attempted[r]
		if len(paces[r].rates) > 0 {
			m.rate += median(paces[r].rates)
		}
	}
	return callers[0], nil
}
