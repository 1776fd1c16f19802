package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"pardis/internal/idl"
	"pardis/internal/idlgen"
	"pardis/internal/nexus"
)

// TestMain lets the test binary stand in for the command: the benchmark
// runs every repetition by re-executing its own binary, which under
// `go test` is this one.
func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command runs the test binary as the benchmark command.
func command(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchmark %v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	return out
}

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	slices.Sort(out)
	return out
}

func keys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// TestSmoke runs every workload for 200 ms, once, through the plain
// invocation and checks the result file against the workload and metric
// lists; then one workload through both passes as BENCHMARK.json's command
// runs it, and checks the line it prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the benchmark")
	}
	out := t.TempDir()
	want := []string{"rtt64_tcp", "rtt64_inproc", "spmd_ping", "bulk8m_spmd_tcp", "serve_pipelined_tcp", "redist_cyclic"}
	runs := [][]string{nil} // one invocation, every workload
	if raceEnabled {
		// The race detector slows the 8 MiB transfers past the child's
		// deadline; the other five still run, one invocation each.
		want = slices.DeleteFunc(want, func(w string) bool { return w == "bulk8m_spmd_tcp" })
		runs = nil
		for _, w := range want {
			runs = append(runs, []string{"-workload", w})
		}
	}
	var got []string
	for i, only := range runs {
		results := filepath.Join(out, "results-"+string(rune('a'+i))+".json")
		command(t, append(only, "-dur", "200ms", "-reps", "1", "-trace-dur", "0", "-out", out, "-json", results)...)
		for _, w := range readReport(results).Workloads {
			got = append(got, w.Name)
			if !w.Healthy || w.Failed != 0 || w.Attempted == 0 {
				t.Errorf("%s: healthy %v, %d of %d operations failed", w.Name, w.Healthy, w.Failed, w.Attempted)
			}
			if !slices.Equal(keys(w.EndToEnd), names(endToEnd)) {
				t.Errorf("%s: end-to-end metrics %v, want %v", w.Name, keys(w.EndToEnd), names(endToEnd))
			}
			if !slices.Equal(keys(w.PerLayer), names(perLayer)) {
				t.Errorf("%s: per-layer metrics %v, want %v", w.Name, keys(w.PerLayer), names(perLayer))
			}
			for name, m := range w.EndToEnd {
				if m.Median <= 0 {
					t.Errorf("%s: %s = %g, want > 0", w.Name, name, m.Median)
				}
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}

	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		lines := bytes.Split(bytes.TrimSpace(command(t, "--workload", "rtt64_inproc", "--seed", "7",
			"--seconds", "0.6", "--trace", string(rune('0'+trace)), "-out", out)), []byte("\n"))
		var line struct {
			Correct   *bool  `json:"correct"`
			Attempted *int64 `json:"attempted"`
			Failed    *int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %d: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %d: %s", trace, lines[len(lines)-1])
		}
		if !slices.Equal(keys(line.Metrics), names(defs)) {
			t.Errorf("trace %d: metrics %v, want %v", trace, keys(line.Metrics), names(defs))
		}
		for _, d := range defs {
			if m := line.Metrics[d.name]; m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %d: %s = %v %q, want a number in %q", trace, d.name, m.Value, m.Unit, d.unit)
			}
		}
	}
	if st, err := os.Stat(filepath.Join(out, "trace-rtt64_inproc.json")); err != nil || st.Size() == 0 {
		t.Errorf("traced pass left no trace file: %v", err)
	}
}

// TestManifest holds BENCHMARK.json to the tables it is generated from and
// to the limits its readers set.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json is stale; regenerate with: go run . -manifest > ../BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRule.MatchString(name) {
			t.Errorf("%s %q breaks the name rule", kind, name)
		}
		if seen[name] {
			t.Errorf("%s %q is used twice", kind, name)
		}
		seen[name] = true
	}
	unitRule := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	listed := 0
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
		if w.provisional == "" {
			listed++
		}
	}
	if listed < 2 || listed > 8 {
		t.Errorf("%d workloads listed, want 2 to 8", listed)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, over 16 or 128", len(endToEnd), len(perLayer))
	}
	for _, d := range endToEnd {
		check("metric", d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		check("metric", d.name)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRule.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", d)
	}
}

// TestGeneratedUpToDate regenerates zz_generated.go from bench.idl and
// fails if the committed stubs have drifted from the compiler's output.
func TestGeneratedUpToDate(t *testing.T) {
	src, err := os.ReadFile("bench.idl")
	if err != nil {
		t.Fatal(err)
	}
	file, err := idl.ParseWithIncludes(string(src), func(name string) (string, error) {
		b, err := os.ReadFile(name)
		return string(b), err
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := idl.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idlgen.Generate(spec, idlgen.Options{Package: "main"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("zz_generated.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("zz_generated.go is stale; regenerate with: go generate")
	}
}

// bareEndpoint has none of the optional capabilities.
type bareEndpoint struct{ nexus.Endpoint }

// TestDecoratorForwardsCapabilities asserts that the tracing endpoint
// answers every optional capability exactly as what it wraps does: an
// endpoint that lost RecvNotifier would silently put the POA back on
// sleep-polling, and the traced pass would time a different program.
func TestDecoratorForwardsCapabilities(t *testing.T) {
	tr := newTracer()
	fab := nexus.NewInproc()
	plain := fab.NewEndpoint("plain")
	for _, c := range []struct {
		name  string
		inner nexus.Endpoint
		want  bool
	}{
		{"inproc", plain, true},
		{"bare", bareEndpoint{fab.NewEndpoint("bare")}, false},
	} {
		w := tr.wrapEndpoint(c.inner, c.name)
		cs, ok := w.(nexus.ConcurrentSender)
		if !ok || cs.ConcurrentSendSafe() != c.want {
			t.Errorf("%s: ConcurrentSendSafe forwarded as %v, want %v", c.name, ok && cs.ConcurrentSendSafe(), c.want)
		}
		rn, ok := w.(nexus.RecvNotifier)
		if !ok || rn.SetRecvNotify(func() {}) != c.want {
			t.Errorf("%s: SetRecvNotify not forwarded as %v", c.name, c.want)
		}
		if w.Addr() != c.inner.Addr() {
			t.Errorf("%s: address %q, want %q", c.name, w.Addr(), c.inner.Addr())
		}
	}
	// The notification itself must come through the wrapper.
	w := tr.wrapEndpoint(fab.NewEndpoint("notified"), "notified")
	woken := make(chan struct{}, 1)
	w.(nexus.RecvNotifier).SetRecvNotify(func() { woken <- struct{}{} })
	if err := plain.Send(w.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	<-woken
	if fr, ok, err := w.Poll(); err != nil || !ok || string(fr.Data) != "x" || fr.From != plain.Addr() {
		t.Errorf("Poll through the wrapper: %v %v %q from %q", err, ok, fr.Data, fr.From)
	}
}

// TestCompareVerdicts pins the rule -compare applies.
func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{"lat_p50_us", "us", "lower", 0.10, 0}
	ops := metricDef{"ops_per_s", "1/s", "higher", 0.10, 0}
	setup := metricDef{"setup_s", "s", "lower", 0.25, 0.050}
	for _, c := range []struct {
		d           metricDef
		a, b        reportMetric
		provisional bool
		want        string
	}{
		{lat, reportMetric{Median: 10}, reportMetric{Median: 10.9}, false, "ok"},
		{lat, reportMetric{Median: 10}, reportMetric{Median: 11.5}, false, "worse"},
		{lat, reportMetric{Median: 10}, reportMetric{Median: 5}, false, "ok"},
		{lat, reportMetric{Median: 10, Spread: 0.2}, reportMetric{Median: 11.5}, false, "unresolved"},
		{lat, reportMetric{Median: 10}, reportMetric{Median: 11.5}, true, "provisional"},
		{ops, reportMetric{Median: 100}, reportMetric{Median: 85}, false, "worse"},
		{ops, reportMetric{Median: 100}, reportMetric{Median: 130}, false, "ok"},
		{setup, reportMetric{Median: 0.004}, reportMetric{Median: 0.008}, false, "ok"}, // under the 50 ms floor
		{setup, reportMetric{Median: 0.2}, reportMetric{Median: 0.3}, false, "worse"},
	} {
		if _, got := verdict(c.d, &c.a, &c.b, c.provisional); got != c.want {
			t.Errorf("%s %g -> %g: %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
