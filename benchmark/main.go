// Command benchmark is the repo's benchmark: six closed-loop workloads run
// against the runtime's public surface, eight end-to-end metrics, and a
// traced pass that says which layer the time went to. See README.md.
//
//	go run .                                    every workload, both passes, a table
//	go run . -workload spmd_ping                one workload
//	go run . -compare out/a.json out/b.json     two result files, metric by metric
//	go run . -manifest > ../BENCHMARK.json      the manifest, from the tables in metrics.go
//	go run . --workload W --seed N --seconds S --trace 0|1
//	                                            one run, one JSON line (BENCHMARK.json)
//
//go:generate go run pardis/cmd/pardis-idl -package main -o zz_generated.go bench.idl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// outDir is where trace files and result files go.
var outDir string

// runReps is how many repetitions one BENCHMARK.json run splits its
// measuring time over: each is a fresh process with its own set-up, and the
// run reports their median.
const runReps = 5

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fatalf(format string, args ...any) {
	logf("benchmark: "+format, args...)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all six)")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		dur      = flag.Duration("dur", 5*time.Second, "measured time of one repetition")
		reps     = flag.Int("reps", 3, "repetitions per workload, each a fresh process")
		traceDur = flag.Duration("trace-dur", 3*time.Second, "measured time of the traced pass (0 skips it)")
		jsonOut  = flag.String("json", "", "also write the results to this file (default <out>/results.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
		out      = flag.String("out", defaultOutDir(), "directory for trace and result files")

		seconds = flag.Float64("seconds", 0, "BENCHMARK.json mode: total measured seconds of this run")
		trace   = flag.Int("trace", 0, "BENCHMARK.json mode: 0 prints the end-to-end metrics, 1 the per-layer ones")

		child  = flag.Bool("child", false, "internal: run one repetition in this process")
		traced = flag.Bool("traced", false, "internal: install the tracing decorators, and time the shutdown")
		replay = flag.Bool("replay", false, "internal: replay the layers in isolation")
	)
	flag.Parse()
	outDir = *out

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *child:
		childMain(mustWorkload(*name), *seed, *dur, *traced, *replay)
	case *seconds > 0:
		os.Exit(contractRun(mustWorkload(*name), *seed, *seconds, *trace == 1))
	default:
		os.Exit(fullRun(*name, *seed, *reps, *dur, *traceDur, *jsonOut))
	}
}

// defaultOutDir is benchmark/out whether the command runs from the repo
// root or from its own directory.
func defaultOutDir() string {
	if _, err := os.Stat("benchmark/bench.idl"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

// childMain is one repetition: it prints its result as one JSON line and
// exits at once, leaving whatever the program still runs to the kernel —
// after a 5 s run HEAD's SPMD server would otherwise spend 20–30 s draining
// its agreement backlog.
func childMain(w *workload, seed uint64, dur time.Duration, traced, replay bool) {
	spawned := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(spawnedEnv), 10, 64); err == nil {
		spawned = time.Unix(0, ns)
	}
	// The parent's watchdog kills a stuck child; this is the same deadline
	// from the inside, for a child run by hand.
	time.AfterFunc(dur+childSlack, func() { fatalf("child deadline exceeded") })
	var res *repResult
	if replay {
		res = runReplay(w, seed, dur)
	} else {
		res = runChild(w, seed, dur, traced, spawned)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatalf("%v", err)
	}
	os.Exit(0)
}

// contractRun is one run as BENCHMARK.json's command: it measures for
// seconds in total and prints one JSON object as its last line.
func contractRun(w *workload, seed uint64, seconds float64, traced bool) int {
	total := time.Duration(seconds * float64(time.Second))
	var run *workloadRun
	defs := endToEnd
	values := map[string]float64{}
	if !traced {
		run = measure(w, seed, runReps, total/runReps, 0)
		for _, d := range defs {
			if s := run.samples(d.name); len(s) > 0 {
				values[d.name] = median(s)
			}
		}
	} else {
		defs = perLayer
		traceDur := time.Duration(float64(total) * tracedShare)
		run = measure(w, seed, 2, (total-traceDur)/2, traceDur)
		values = run.layers()
	}
	attempted, failed := run.attempts()
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	correct := run.healthy() && failed == 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			correct = false // an end-to-end metric is never missing
		}
		// A per-layer metric that does not exist on this workload (no ORB,
		// no SPMD server, replies unmatched) reads 0 here; the table
		// printed by a plain `go run .` says null and why.
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(attempted, 1), failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !run.healthy() {
		return 1
	}
	return 0
}
