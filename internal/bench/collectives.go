package bench

import (
	"fmt"

	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// The collectives experiment measures the modeled latency of the RTS
// collective operations themselves on a single simulated host, across
// thread counts. The POA dispatch agreement, dseq layout negotiation and
// the numeric kernels are all built on these primitives, so their depth
// (⌈log₂P⌉ for the tree algorithms, P for flat ones) is the scaling term
// of every collective hot path.

// CollectivePoint is one collective's modeled per-operation latency at one
// thread count.
type CollectivePoint struct {
	Op      string  `json:"op"`
	P       int     `json:"p"`
	Bytes   int     `json:"bytes"` // payload per contributing thread
	Seconds float64 `json:"seconds"`
}

// CollectiveProcs is the default thread-count sweep. The acceptance gate
// for log-depth scaling compares P=8 against P=64.
var CollectiveProcs = []int{4, 8, 16, 32, 64}

// Collectives measures Barrier, Bcast and AllGather modeled latency at each
// thread count, payload bytes per thread, averaging iters back-to-back
// operations (which also exercises the non-interleaving guarantee under the
// virtual clock).
func Collectives(ps []int, payload, iters int) []CollectivePoint {
	var pts []CollectivePoint
	for _, p := range ps {
		pts = append(pts, collectivePoint("barrier", p, 0, iters, func(th rts.Thread, _ []byte) {
			th.Barrier()
		}))
		pts = append(pts, collectivePoint("bcast", p, payload, iters, func(th rts.Thread, data []byte) {
			if th.Rank() != 0 {
				data = nil
			}
			rts.Bcast(th, 0, data)
		}))
		pts = append(pts, collectivePoint("allgather", p, payload, iters, func(th rts.Thread, data []byte) {
			rts.AllGather(th, data)
		}))
	}
	return pts
}

// collectivePoint runs one collective iters times on a fresh simulated
// host of p nodes and reports the average modeled seconds per operation.
func collectivePoint(op string, p, payload, iters int, body func(th rts.Thread, data []byte)) CollectivePoint {
	sim := vtime.NewSim()
	// One node per thread, shared-memory-class interconnect: 10 µs latency,
	// 100 MB/s per-node NICs (the unit-test host model). Collective latency
	// is then a pure function of the algorithm's message schedule.
	host := simnet.NewHost("coll", 1, p, vtime.Microseconds(10), 1e8)
	g := rts.NewSimGroup(sim, host, p)
	var secs float64
	g.Spawn("coll", func(th rts.Thread) {
		data := make([]byte, payload)
		for i := range data {
			data[i] = byte(th.Rank())
		}
		th.Barrier() // synchronize the start so the timer sees steady state
		start := th.Elapsed()
		for i := 0; i < iters; i++ {
			body(th, data)
		}
		th.Barrier()
		if th.Rank() == 0 {
			secs = (th.Elapsed() - start) / float64(iters)
		}
	})
	if _, err := sim.Run(); err != nil {
		panic(fmt.Sprintf("bench: collectives %s P=%d: %v", op, p, err))
	}
	return CollectivePoint{Op: op, P: p, Bytes: payload, Seconds: secs}
}
