package core

import (
	"time"

	"pardis/internal/dist"
	"pardis/internal/tune"
)

// Self-tuned segment-transfer fan-out. The right worker width depends on
// the destination count, the payload per destination, and how much send
// latency the transport hides — all observable. fanWidth closes that loop:
// an unpinned transfer is timed, and a process-wide selector learns the best
// width per (destination count, payload bucket) the same way the collectives
// learn algorithms.

// fanWidths is the candidate arm set: power-of-two widths, clamped to the
// move count at use. Width 1 (the serial path) is arm 0 — the default the
// selector starts from and the fallback everywhere tuning is off.
var fanWidths = [...]int{1, 2, 4, 8, 16}

// fanSel learns fan-out widths from observed wall-clock transfer times.
// One selector per process: every ORB and POA contributes observations,
// since the bottleneck being balanced (transport send latency vs goroutine
// overhead) is a process property, not a per-adapter one. Seeded
// constantly — on the real-time fabrics where auto fan-out runs, wall
// clocks already vary; the seed only fixes the probe order.
var fanSel = tune.New(0x5eed)

func init() { tune.Register("fanout", fanSel) }

// noFanDone is the completion hook of untimed transfers.
var noFanDone = func() {}

// fanWidth resolves the worker count for one segment transfer — pin if
// positive, tuned per (destinations, payload bucket) otherwise (see
// TransferPolicy) — and returns a completion hook to call when the transfer
// finishes (on success paths; errored transfers teach the tuner nothing and
// skip the hook).
//
// safe is Router.ConcurrentSendSafe; widths above 1 are never used on an
// unsafe fabric regardless of pin, which keeps the Sim fabric — whose
// virtual-time discipline is single-threaded — byte-identical.
func fanWidth(pin int, safe bool, moves []dist.Move) (int, func()) {
	if !safe || len(moves) <= 1 {
		return 1, noFanDone
	}
	if pin > 0 {
		return pin, noFanDone
	}
	elems := 0
	for i := range moves {
		elems += moves[i].Elements()
	}
	k := tune.Key{Op: "fanout", P: len(moves), Bucket: tune.Bucket(elems * 8)}
	arm, _ := fanSel.Pick(k, len(fanWidths))
	width := fanWidths[arm]
	if width > len(moves) {
		width = len(moves)
	}
	start := time.Now()
	return width, func() {
		fanSel.Observe(k, arm, time.Since(start).Seconds())
	}
}
