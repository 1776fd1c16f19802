// Pipeline runs the paper's §4.3 metaapplication at the paper's sizes:
// pipeline.Deploy, which pardis-bench -fig 5 runs on virtual time, on the
// wall clock on the in-process launcher. A 2-thread POOMA diffusion client
// steps a 128x128 grid 100 times and sends every 5th field to a 2-thread
// PSTL gradient server, and both feed a visualizer. What the visualizers
// are shown must equal a one-thread run's, bit for bit.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"pardis/internal/apps"
	"pardis/internal/apps/pipeline"
)

func main() {
	vizDiff, vizGrad, err := pipeline.Deploy(apps.NewInproc(), pipeline.Topology{
		Gradient:  apps.Program{Host: "HOST_2", Threads: 2},
		Diffusion: apps.Program{Host: "HOST_1", Threads: 2},
		VizGrad:   "HOST_2",
	}, pipeline.Params{}, nil)
	serialDiff, serialGrad := pipeline.Serial()
	fmt.Printf("  [viz-diffusion] %+v\n  [viz-gradient] %+v\n", *vizDiff, *vizGrad)
	if err != nil || *vizDiff != serialDiff || *vizGrad != serialGrad {
		log.Fatalf("%v; want the serial run's %+v and %+v", err, serialDiff, serialGrad)
	}
	fmt.Println("pipeline example completed: every last frame equals the serial run's")
}
