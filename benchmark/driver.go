package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

const (
	// spawnedEnv carries the parent's clock reading at spawn, so that
	// setup_s covers process start as well.
	spawnedEnv = "PARDIS_BENCH_SPAWNED_NS"
	// reexecEnv tells a test binary that it was started as a child and is
	// to behave as the command (see TestMain).
	reexecEnv = "PARDIS_BENCH_REEXEC"
	// childSlack is what a child may take beyond its measured time before
	// the watchdog kills it.
	childSlack = 20 * time.Second
	// tracedShare is the part of a traced run's measuring time spent with
	// the decorators installed; the rest is the untraced reference the
	// tracing overhead is taken against.
	tracedShare = 2.0 / 3
)

// childSpec is one repetition to run in a fresh process.
type childSpec struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool // decorators installed; shutdown timed
	replay   bool
}

// spawn runs one repetition as a child process — this binary re-executed —
// so that heap, schedule cache, tuner state and leaked goroutines never
// carry over. A child that dies, prints nothing usable or outlives its
// deadline yields a failed repetition, never an error.
func spawn(s childSpec) *repResult {
	failed := func(format string, args ...any) *repResult {
		return &repResult{Workload: s.workload, Traced: s.traced, Attempted: 1, Failed: 1,
			Values: map[string]float64{}, Error: fmt.Sprintf(format, args...)}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed("locate own binary: %v", err)
	}
	args := []string{"-child", "-workload", s.workload, "-seed", strconv.FormatUint(s.seed, 10),
		"-dur", s.dur.String(), "-out", outDir}
	if s.traced {
		args = append(args, "-traced")
	}
	if s.replay {
		args = append(args, "-replay")
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.dur+childSlack)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.Env = append(os.Environ(), reexecEnv+"=1", spawnedEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return failed("child hit its %v deadline and was killed", s.dur+childSlack)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	res := &repResult{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil || res.Values == nil {
		return failed("child died without a result (%v): %.200q", runErr, out.String())
	}
	return res
}

// workloadRun is everything measured for one workload by one invocation.
type workloadRun struct {
	w *workload
	// reps are the untraced repetitions: they alone feed the end-to-end
	// metrics.
	reps []*repResult
	// traced and replay are the two halves of the traced pass; nil when
	// the pass was not run.
	traced *repResult
	replay *repResult
}

// measure runs reps untraced repetitions of dur each and, with traceDur > 0,
// the traced pass: the workload once more with the decorators installed,
// then the layers' public functions replayed in isolation. The traced child
// runs before the last untraced repetition, so that the repetitions it is
// compared with (trace.overhead_pct) bracket it in time and a drift of the
// box cancels.
func measure(w *workload, seed uint64, reps int, dur, traceDur time.Duration) *workloadRun {
	run := &workloadRun{w: w}
	for r := 0; r < reps; r++ {
		if traceDur > 0 && r == reps-1 {
			run.traced = spawn(childSpec{workload: w.name, seed: seed, dur: traceDur, traced: true})
			logf("%s traced: %d ops in %.2fs%s", w.name, run.traced.Ops, run.traced.Seconds, errSuffix(run.traced))
		}
		res := spawn(childSpec{workload: w.name, seed: seed, dur: dur})
		logf("%s rep %d/%d: %d ops in %.2fs%s", w.name, r+1, reps, res.Ops, res.Seconds, errSuffix(res))
		run.reps = append(run.reps, res)
	}
	if traceDur > 0 {
		run.replay = spawn(childSpec{workload: w.name, seed: seed, dur: min(replayBudget, 4*traceDur), replay: true})
		logf("%s replay done%s", w.name, errSuffix(run.replay))
	}
	return run
}

func errSuffix(r *repResult) string {
	if r.Error == "" {
		return ""
	}
	return " — " + r.Error
}

// samples returns the untraced repetitions' values of one metric.
func (run *workloadRun) samples(metric string) []float64 {
	var out []float64
	for _, r := range run.reps {
		if v, ok := r.Values[metric]; ok && r.Error == "" {
			out = append(out, v)
		}
	}
	return out
}

// children lists every child this run spawned.
func (run *workloadRun) children() []*repResult {
	all := append([]*repResult{}, run.reps...)
	if run.traced != nil {
		all = append(all, run.traced, run.replay)
	}
	return all
}

// attempts sums operations attempted and failed over every child.
func (run *workloadRun) attempts() (attempted, failed int64) {
	for _, r := range run.children() {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

// healthy reports whether every child ran to the end.
func (run *workloadRun) healthy() bool {
	for _, r := range run.children() {
		if r.Error != "" {
			return false
		}
	}
	return true
}

// layers merges the traced pass into one value per per-layer metric; a
// metric nothing measured is absent.
func (run *workloadRun) layers() map[string]float64 {
	out := map[string]float64{}
	if run.traced == nil {
		return out
	}
	for _, r := range []*repResult{run.traced, run.replay} {
		for k, v := range r.Values {
			out[k] = v
		}
	}
	if ref := run.samples("lat_p50_us"); len(ref) > 0 {
		if traced, ok := run.traced.Values["lat_p50_us"]; ok {
			out["trace.overhead_pct"] = 100 * (traced/median(ref) - 1)
		}
	}
	return out
}
