// Command pardis-bench regenerates the measurements of the paper's
// evaluation section (Figures 2, 4 and 5), the ablation studies and the
// other modeled figures on the simulated testbed, printing one table per
// experiment.
//
// Usage:
//
//	pardis-bench [-fig 2|4|5|ablations|collectives|fanin|serve|obs|all]
//	             [-quick] [-json] [-trace FILE] [-debug ADDR]
//
// -quick trims the sweeps for a fast smoke run. -json replaces the tables
// with one JSON document summarizing every experiment point, for CI
// artifacts and regression diffing. -trace enables span recording for the
// whole run and writes a Chrome trace-event JSON (chrome://tracing,
// Perfetto) to FILE on exit. -debug serves the live introspection endpoint
// (/metrics, /debug/vars, /debug/trace — see DESIGN.md §11) on ADDR for
// the duration of the run. Every figure but fanin and obs is deterministic:
// it runs the full PARDIS stack on a virtual clock over the modeled 1997
// machines (see DESIGN.md §4 for the substitutions). Wall-clock performance
// is measured by the repo benchmark in benchmark/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pardis/internal/bench"
	"pardis/internal/obs"
)

// summary is the -json document: one optional section per experiment.
type summary struct {
	Figure2     []bench.Fig2Point       `json:"figure2,omitempty"`
	Figure4     []bench.Fig4Point       `json:"figure4,omitempty"`
	Figure5     []bench.Fig5Point       `json:"figure5,omitempty"`
	Ablations   []ablationSection       `json:"ablations,omitempty"`
	Collectives []bench.CollectivePoint `json:"collectives,omitempty"`
	Fanin       []bench.FaninPoint      `json:"fanin,omitempty"`
	Serve       []bench.ServePoint      `json:"serve,omitempty"`
	Obs         []bench.ObsPoint        `json:"obs,omitempty"`
}

type ablationSection struct {
	Name   string                `json:"name"`
	Points []bench.AblationPoint `json:"points"`
}

func main() {
	fig := flag.String("fig", "all", "which experiment: 2, 4, 5, ablations, collectives, fanin, serve, obs, all")
	quick := flag.Bool("quick", false, "trimmed sweeps")
	asJSON := flag.Bool("json", false, "emit a JSON summary instead of tables")
	traceFile := flag.String("trace", "", "record spans and write a Chrome trace-event JSON to this file")
	debugAddr := flag.String("debug", "", "serve /metrics, /debug/vars and /debug/trace on this address during the run")
	flag.Parse()

	if *debugAddr != "" {
		bound, stop, err := obs.Serve(*debugAddr, obs.Default, obs.DefaultTracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardis-bench: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "pardis-bench: debug endpoint at http://%s\n", bound)
	}
	if *traceFile != "" {
		obs.DefaultTracer.Reset()
		obs.DefaultTracer.SetEnabled(true)
	}

	var out summary
	switch *fig {
	case "2":
		out.Figure2 = figure2(*quick, *asJSON)
	case "4":
		out.Figure4 = figure4(*quick, *asJSON)
	case "5":
		out.Figure5 = figure5(*quick, *asJSON)
	case "ablations":
		out.Ablations = ablations(*quick, *asJSON)
	case "collectives":
		out.Collectives = collectives(*quick, *asJSON)
	case "fanin":
		out.Fanin = fanin(*quick, *asJSON)
	case "serve":
		out.Serve = serve(*quick, *asJSON)
	case "obs":
		out.Obs = obsPlane(*quick, *asJSON)
	case "all":
		out.Figure2 = figure2(*quick, *asJSON)
		out.Figure4 = figure4(*quick, *asJSON)
		out.Figure5 = figure5(*quick, *asJSON)
		out.Ablations = ablations(*quick, *asJSON)
		out.Collectives = collectives(*quick, *asJSON)
		out.Fanin = fanin(*quick, *asJSON)
		out.Serve = serve(*quick, *asJSON)
		out.Obs = obsPlane(*quick, *asJSON)
	default:
		fmt.Fprintf(os.Stderr, "pardis-bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "pardis-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceFile != "" {
		obs.DefaultTracer.SetEnabled(false)
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardis-bench: %v\n", err)
			os.Exit(1)
		}
		if err := obs.DefaultTracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardis-bench: trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pardis-bench: wrote %d spans to %s (%d dropped)\n",
			len(obs.DefaultTracer.Spans()), *traceFile, obs.DefaultTracer.Dropped())
	}
}

func figure2(quick, silent bool) []bench.Fig2Point {
	sizes := bench.Fig2Sizes
	if quick {
		sizes = []int{200, 600, 1200}
	}
	pts := bench.Figure2(sizes)
	if silent {
		return pts
	}
	fmt.Println("== Figure 2: distributed vs local performance (seconds) ==")
	fmt.Println("problem_size  direct(HOST1)  iterative(HOST2)  different_servers  same_server(HOST1)")
	for _, p := range pts {
		fmt.Printf("%12d  %13.2f  %16.2f  %17.2f  %18.2f\n",
			p.N, p.Direct, p.Iterative, p.Distributed, p.SameServer)
	}
	fmt.Println()
	return pts
}

func figure4(quick, silent bool) []bench.Fig4Point {
	procs := bench.Fig4Procs
	if quick {
		procs = []int{1, 2, 3, 4, 8}
	}
	pts := bench.Figure4(procs)
	if silent {
		return pts
	}
	fmt.Println("== Figure 4: centralized vs distributed single objects (seconds) ==")
	fmt.Println("server_procs  centralized  distributed  difference")
	for _, p := range pts {
		fmt.Printf("%12d  %11.2f  %11.2f  %10.2f\n",
			p.Procs, p.Centralized, p.Distributed, p.Difference)
	}
	fmt.Println()
	return pts
}

func figure5(quick, silent bool) []bench.Fig5Point {
	procs := bench.Fig5Procs
	if quick {
		procs = []int{1, 2, 4, 8}
	}
	pts := bench.Figure5(procs)
	if silent {
		return pts
	}
	fmt.Println("== Figure 5: pipelined metaapplication (seconds) ==")
	fmt.Println("procs  overall  diffusion(SGI PC)  gradient(SP2)")
	for _, p := range pts {
		fmt.Printf("%5d  %7.2f  %17.2f  %13.2f\n",
			p.Procs, p.Overall, p.Diffusion, p.Gradient)
	}
	fmt.Println()
	return pts
}

// collectives measures the modeled per-operation latency of the RTS
// collectives across thread counts on the simulated fabric: deterministic,
// so the log-depth scaling gate can assert on the numbers directly.
func collectives(quick, silent bool) []bench.CollectivePoint {
	ps, payload, iters := bench.CollectiveProcs, 4096, 20
	if quick {
		ps, iters = []int{8, 64}, 5
	}
	pts := bench.Collectives(ps, payload, iters)
	if silent {
		return pts
	}
	fmt.Println("== Collectives: modeled latency per operation (seconds) ==")
	fmt.Println("op         P   payload_B     seconds")
	for _, p := range pts {
		fmt.Printf("%-9s %3d  %9d  %10.6f\n", p.Op, p.P, p.Bytes, p.Seconds)
	}
	fmt.Println()
	return pts
}

// fanin measures connection-scale fan-in over real TCP: thousands of
// concurrent clients multiplexed over shared transports against one 4-rank
// SPMD server, with the one-socket-per-client baseline for the memory
// ratio. Wall clock, so compare modes within one run.
func fanin(quick, silent bool) []bench.FaninPoint {
	levels := bench.FaninLevels
	baseline := bench.FaninBaselineClients
	if quick {
		levels = bench.FaninQuickLevels
	}
	pts := bench.Fanin(levels, baseline)
	if silent {
		return pts
	}
	fmt.Println("== Fan-in: concurrent clients vs one 4-rank SPMD server (wall clock) ==")
	fmt.Println("mode       clients    req_per_sec   bytes_per_client   connections")
	for _, p := range pts {
		fmt.Printf("%-8s  %8d  %13.0f  %17.0f  %12d\n",
			p.Mode, p.Clients, p.ReqPerSec, p.BytesPerClient, p.Conns)
	}
	fmt.Println()
	return pts
}

// serve runs the replicated-group serving cells on the simulated testbed:
// a 4-replica group behind the registry's load-balancing resolve, healthy
// and with a replica killed mid-run, plus an overload cell with and without
// POA admission control. Virtual clock, so the table is deterministic.
func serve(quick, silent bool) []bench.ServePoint {
	pts := bench.FigureServe(quick)
	if silent {
		return pts
	}
	fmt.Println("== Serve: replicated group, failover and admission control (virtual clock) ==")
	fmt.Println("scenario         clients  invocations  completed  p50_ms  p95_ms  p99_ms  failovers  sheds  drop_ms")
	for _, p := range pts {
		fmt.Printf("%-15s  %7d  %11d  %9d  %6.1f  %6.1f  %6.1f  %9d  %5d  %7.1f\n",
			p.Scenario, p.Clients, p.Invocations, p.Completed,
			p.P50*1000, p.P95*1000, p.P99*1000, p.Failovers, p.Sheds, p.DropSeconds*1000)
	}
	fmt.Println()
	return pts
}

// obsPlane checks the observability plane itself: tail-retention recall on
// a mixed load and the federation page's render cost. Wall clock.
func obsPlane(quick, silent bool) []bench.ObsPoint {
	pts := bench.FigureObs(quick)
	if silent {
		return pts
	}
	fmt.Println("== Obs: flight recorder and metrics federation (wall clock) ==")
	for _, p := range pts {
		switch p.Cell {
		case "retention":
			fmt.Printf("retention  interesting=%d/%d recall=%.3f boring_retained=%d retained=%d/%d recycled=%d\n",
				p.Interesting, p.Invocations, p.Recall, p.BoringRetained,
				p.RetainedCount, p.RetainedBound, p.Recycled)
		case "scrape":
			fmt.Printf("scrape     groups=%d members=%d  %8.0f ns/render  page=%d bytes\n",
				p.Groups, p.Members, p.ScrapeNs, p.PageBytes)
		}
	}
	fmt.Println()
	return pts
}

func ablations(quick, silent bool) []ablationSection {
	nT, nL, nB := 1_000_000, 500_000, 600
	if quick {
		nT, nL, nB = 200_000, 100_000, 300
	}
	sections := []ablationSection{
		{fmt.Sprintf("parallel vs funneled argument transfer (%d doubles, 4x4 threads)", nT),
			bench.AblationParallelTransfer(nT)},
		{fmt.Sprintf("co-located vs remote invocation (%d doubles)", nL),
			bench.AblationLocalShortcut(nL)},
		{fmt.Sprintf("non-blocking overlap vs blocking (solvers, n=%d)", nB),
			bench.AblationNonBlocking(nB)},
		{"oneway vs two-way non-blocking pipeline (p=4)",
			bench.AblationOneway(4)},
		{"single-threaded vs communication-thread transport (p=8, the paper's §6 proposal)",
			bench.AblationCommThreads(8)},
		{"redistribution templates (1M doubles, 8 threads)",
			bench.AblationRedistribution(1_000_000)},
	}
	if silent {
		return sections
	}
	fmt.Println("== Ablations ==")
	for _, s := range sections {
		fmt.Println(s.Name + ":")
		for _, p := range s.Points {
			fmt.Printf("  %-24s %10.4f s\n", p.Label, p.Seconds)
		}
	}
	fmt.Println()
	return sections
}
