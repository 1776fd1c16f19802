package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// report is the result file a plain run writes and -compare reads.
type report struct {
	Env       map[string]string `json:"env"`
	Workloads []*reportWorkload `json:"workloads"`
}

type reportWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Provisional marks a workload whose numbers do not repeat on this
	// commit (see README.md); -compare never calls it worse.
	Provisional bool                     `json:"provisional,omitempty"`
	Attempted   int64                    `json:"attempted"`
	Failed      int64                    `json:"failed"`
	FailRatio   float64                  `json:"fail_ratio"`
	Healthy     bool                     `json:"healthy"`
	EndToEnd    map[string]*reportMetric `json:"end_to_end"`
	// PerLayer holds null for a metric the traced pass could not measure
	// on this workload.
	PerLayer map[string]*float64 `json:"per_layer"`
}

type reportMetric struct {
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // (max-min)/median over the repetitions
	Samples []float64 `json:"samples"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
}

// environment is printed with every result: numbers only compare between
// runs whose blocks agree.
func environment(seed uint64, reps int, dur time.Duration) map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"seed":       fmt.Sprint(seed),
		"dur":        dur.String(),
		"reps":       fmt.Sprint(reps),
	}
}

// summarize folds one workload's runs into its report entry.
func summarize(run *workloadRun) *reportWorkload {
	w := run.w
	rw := &reportWorkload{Name: w.name, Why: w.why, Provisional: w.provisional != "",
		Healthy: run.healthy(), EndToEnd: map[string]*reportMetric{}, PerLayer: map[string]*float64{}}
	rw.Attempted, rw.Failed = run.attempts()
	if rw.Attempted > 0 {
		rw.FailRatio = float64(rw.Failed) / float64(rw.Attempted)
	}
	for _, d := range endToEnd {
		if s := run.samples(d.name); len(s) > 0 {
			rw.EndToEnd[d.name] = &reportMetric{Median: median(s), Spread: spread(s), Samples: s,
				Unit: d.unit, Better: d.better, Bound: d.bound}
		}
	}
	layers := run.layers()
	for _, d := range perLayer {
		if v, ok := layers[d.name]; ok {
			rw.PerLayer[d.name] = &v
		} else {
			rw.PerLayer[d.name] = nil
		}
	}
	return rw
}

// nullReason says why a per-layer metric has no value on a workload.
func nullReason(w *workload, traced bool, metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	switch {
	case !traced:
		return "traced pass skipped"
	case metric == "obs.recorder_overhead_us":
		return "measured on rtt64_inproc only"
	case metric == "nexus.tcp_frames_per_flush":
		return "no TCP in this workload"
	case metric == "dist.cache_hit_rate":
		return "no schedule looked up in the window"
	case metric == "poa.rank_skew_us" && w.sample != nil:
		return "the other server rank had not reached these invocations when the window closed"
	case w.sample == nil:
		return "no ORB in this workload"
	case w.depth > 0 && (layer == "trace" || strings.HasPrefix(metric, "poa.post") || strings.Contains(metric, "rep_")):
		return "pooled replies may reorder; request direction only"
	}
	return "not measured"
}

// fullRun is the plain invocation: every workload (or the named one), the
// untraced repetitions and then the traced pass, a table on standard output
// and the same as JSON in the result file.
func fullRun(only string, seed uint64, reps int, dur, traceDur time.Duration, jsonOut string) int {
	todo := workloads
	if only != "" {
		todo = []*workload{mustWorkload(only)}
	}
	rep := &report{Env: environment(seed, reps, dur)}
	printEnv(rep.Env)
	status := 0
	for _, w := range todo {
		run := measure(w, seed, reps, dur, traceDur)
		rw := summarize(run)
		rep.Workloads = append(rep.Workloads, rw)
		printWorkload(w, rw, traceDur > 0)
		if !rw.Healthy || rw.Failed > 0 {
			status = 1
		}
		if msg := fidelity(w, rw); msg != "" {
			fmt.Printf("  FAIL %s\n", msg)
			status = 1
		}
	}
	if jsonOut == "" {
		jsonOut = filepath.Join(outDir, "results.json")
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(jsonOut), 0o755); err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		logf("benchmark: result file: %v", err)
		return 1
	}
	fmt.Printf("\nresults written to %s\n", jsonOut)
	return status
}

// fidelity checks, on the two round-trip workloads, that the decorators
// timed the program without changing it: the seven segments must add up to
// the median latency within 10 %, and tracing may cost at most 15 % of it —
// beyond what its clock reads cost, which no outside tracer can avoid and
// which depends on the box (45 ns a read, 5 % of the in-process round trip,
// where this was written; a third of that on bare metal).
func fidelity(w *workload, rw *reportWorkload) string {
	if !strings.HasPrefix(w.name, "rtt64_") {
		return ""
	}
	limit := 15.0
	if clock, lat := rw.PerLayer["trace.clock_read_ns"], rw.EndToEnd["lat_p50_us"]; clock != nil && lat != nil {
		limit += 100 * clockReadsPerOp * *clock / (1e3 * lat.Median)
	}
	if v := rw.PerLayer["trace.overhead_pct"]; v != nil && *v > limit {
		return fmt.Sprintf("trace.overhead_pct %.1f > %.1f: the decorators change what they time", *v, limit)
	}
	if v := rw.PerLayer["trace.sum_over_e2e"]; v != nil && (*v < 0.9 || *v > 1.1) {
		return fmt.Sprintf("trace.sum_over_e2e %.3f outside 0.9-1.1: the segments do not cover the operation", *v)
	}
	return ""
}

func printEnv(env map[string]string) {
	fmt.Print("environment:")
	for _, k := range []string{"commit", "go", "os_arch", "nproc", "GOMAXPROCS", "seed", "dur", "reps"} {
		fmt.Printf(" %s=%s", k, env[k])
	}
	fmt.Println()
}

func printWorkload(w *workload, rw *reportWorkload, traced bool) {
	fmt.Printf("\n== %s — %s\n", rw.Name, rw.Why)
	if w.provisional != "" {
		fmt.Printf("   provisional: %s\n", w.provisional)
	}
	fmt.Printf("   attempted %d, failed %d, fail_ratio %g (bound: any rise > %g)\n",
		rw.Attempted, rw.Failed, rw.FailRatio, failRatioRise)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "   end-to-end\tmedian\tunit\t.spread\tn\tbound")
	for _, d := range endToEnd {
		m := rw.EndToEnd[d.name]
		if m == nil {
			fmt.Fprintf(tw, "   %s\tmissing\t%s\t\t0\t\n", d.name, d.unit)
			continue
		}
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%.3f\t%d\t%s\n", d.name, m.Median, d.unit, m.Spread, len(m.Samples), d.boundText())
	}
	fmt.Fprintln(tw, "   per-layer\tvalue\tunit\t\t\t")
	for _, d := range perLayer {
		if v := rw.PerLayer[d.name]; v != nil {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t\t\t\n", d.name, *v, d.unit)
		} else {
			fmt.Fprintf(tw, "   %s\tnull\t%s\t(%s)\t\t\n", d.name, d.unit, nullReason(w, traced, d.name))
		}
	}
	tw.Flush()
}

func (d metricDef) boundText() string {
	s := fmt.Sprintf("%.0f %%", 100*d.bound)
	if d.floor > 0 {
		s += fmt.Sprintf(" and > %g %s", d.floor, d.unit)
	}
	return s
}

// --- -compare -----------------------------------------------------------------

func readReport(path string) *report {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		fatalf("%s: %v", path, err)
	}
	return rep
}

// verdict compares one metric of a baseline a and a candidate b.
// "unresolved" means either side's own repetitions spread wider than the
// bound, so the two medians cannot be told apart at that resolution.
func verdict(d metricDef, a, b *reportMetric, provisional bool) (change float64, v string) {
	change = (b.Median - a.Median) / a.Median
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	diff := b.Median - a.Median
	switch {
	case worse <= d.bound || max(diff, -diff) <= d.floor:
		return change, "ok"
	case provisional:
		return change, "provisional"
	case a.Spread > d.bound || b.Spread > d.bound:
		return change, "unresolved"
	}
	return change, "worse"
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// relative change, the bound and a verdict; it returns 1 on any "worse".
func compareFiles(pathA, pathB string) int {
	a, b := readReport(pathA), readReport(pathB)
	fmt.Printf("a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Env["commit"], pathB, b.Env["commit"])
	inB := map[string]*reportWorkload{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	status := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb := inB[wa.Name]
		if wb == nil {
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\tmissing in b\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if ma == nil || mb == nil || ma.Median == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\n", wa.Name, d.name)
				continue
			}
			change, v := verdict(d, ma, mb, wa.Provisional || wb.Provisional)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f %%\t%s\t%s\n", wa.Name, d.name, ma.Median, mb.Median, 100*change, d.boundText(), v)
		}
		v := "ok"
		if wb.FailRatio > wa.FailRatio+failRatioRise {
			v, status = "worse", 1
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%g\t%g\t\trise > %g\t%s\n", wa.Name, wa.FailRatio, wb.FailRatio, failRatioRise, v)
	}
	tw.Flush()
	return status
}
