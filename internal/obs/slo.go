// Per-operation SLO accounting: each operation gets a latency/error budget
// — an invocation is "good" iff it completed without error within the
// latency target — tracked over a sliding budget window of fixed-width
// slots. The derived burn rate (bad fraction over the window divided by
// the budget fraction 1-objective) is the standard SRE alerting signal: a
// burn rate of 1 consumes exactly the budget; sustained >1 means the
// objective will be missed.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// SLOConfig is one operation's objective.
type SLOConfig struct {
	// Objective is the target good fraction over the window (e.g. 0.999).
	Objective float64
	// LatencyTarget is the seconds bound a good invocation must meet.
	LatencyTarget float64
	// Window is the budget window in seconds. Default 60.
	Window float64
	// Slots is the number of sliding-window buckets. Default 30.
	Slots int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 0.1
	}
	if c.Window <= 0 {
		c.Window = 60
	}
	if c.Slots <= 0 {
		c.Slots = 30
	}
	return c
}

// sloSlot is one time bucket of good/bad counts; idx is the absolute slot
// number it currently holds, so stale buckets are recognized lazily.
type sloSlot struct {
	idx       int64
	good, bad uint64
}

// SLOOp is one operation's budget state within a set: the handle Op
// resolves once, so the per-invocation Observe is a slot update under the
// operation's own lock — no map lookup, no set-wide mutex, no clock read.
type SLOOp struct {
	mu    sync.Mutex
	cfg   SLOConfig
	width float64 // slot width, seconds
	slots []sloSlot

	goodTotal, badTotal uint64 // lifetime, beyond the window
}

// maxSLOOps bounds label cardinality: operations beyond the bound fold
// into the "_other" bucket instead of growing the map without limit.
const maxSLOOps = 256

// sloOverflowOp collects observations once the op table is full.
const sloOverflowOp = "_other"

// SLOSet tracks latency/error budgets for a family of operations (one set
// per layer: orb_slo, poa_slo). It registers on a Registry like any other
// instrument and renders burn-rate gauges and good/bad counters per op.
type SLOSet struct {
	mu    sync.Mutex
	def   SLOConfig
	ops   map[string]*SLOOp
	clock func() float64 // seconds; ages the window in Snapshot, swappable for tests
}

// NewSLOSet creates a set whose operations default to def (zero fields of
// def select package defaults: 99.9% within 100ms over a 60s window).
func NewSLOSet(def SLOConfig) *SLOSet {
	return &SLOSet{
		def:   def.withDefaults(),
		ops:   map[string]*SLOOp{},
		clock: func() float64 { return float64(NowNS()) / 1e9 },
	}
}

// Define sets (or replaces) one operation's objective; its window restarts.
// An existing entry is reset in place, so handles from Op stay valid.
func (s *SLOSet) Define(op string, cfg SLOConfig) {
	cfg = cfg.withDefaults()
	s.mu.Lock()
	if o := s.ops[op]; o != nil {
		o.mu.Lock()
		o.reset(cfg)
		o.mu.Unlock()
	} else {
		s.ops[op] = newSLOOp(cfg)
	}
	s.mu.Unlock()
}

// SetClock replaces the time source (seconds); for tests.
func (s *SLOSet) SetClock(clock func() float64) {
	s.mu.Lock()
	s.clock = clock
	s.mu.Unlock()
}

func newSLOOp(cfg SLOConfig) *SLOOp {
	o := &SLOOp{}
	o.reset(cfg)
	return o
}

func (o *SLOOp) reset(cfg SLOConfig) {
	o.cfg = cfg
	o.width = cfg.Window / float64(cfg.Slots)
	o.slots = make([]sloSlot, cfg.Slots)
	for i := range o.slots {
		o.slots[i].idx = -1
	}
	o.goodTotal, o.badTotal = 0, 0
}

// Op returns the named operation's entry, creating it with the set's
// defaults on first use; once the table is full, new names share the
// "_other" entry. Callers on a hot path resolve the handle once and keep
// it — the entry lives as long as the set.
func (s *SLOSet) Op(op string) *SLOOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.ops[op]
	if o == nil {
		if len(s.ops) >= maxSLOOps {
			op = sloOverflowOp
			if o = s.ops[op]; o != nil {
				return o
			}
		}
		o = newSLOOp(s.def)
		s.ops[op] = o
	}
	return o
}

// Observe accounts one invocation that completed at endNS, the observing
// thread's clock reading the caller already holds: good iff it did not fail
// and met the operation's latency target. Windows age on the set's clock,
// so a simulated thread's virtual stamp lands in a window that means nothing.
func (o *SLOOp) Observe(endNS int64, seconds float64, failed bool) {
	o.mu.Lock()
	idx := int64(float64(endNS) / 1e9 / o.width)
	pos := int(idx % int64(len(o.slots)))
	if pos < 0 {
		pos += len(o.slots)
	}
	if o.slots[pos].idx != idx {
		o.slots[pos] = sloSlot{idx: idx}
	}
	if failed || seconds > o.cfg.LatencyTarget {
		o.slots[pos].bad++
		o.badTotal++
	} else {
		o.slots[pos].good++
		o.goodTotal++
	}
	o.mu.Unlock()
}

// SLOSnapshot is one operation's current budget position.
type SLOSnapshot struct {
	Op            string
	Objective     float64
	LatencyTarget float64
	Window        float64
	Good, Bad     uint64 // within the window
	GoodTotal     uint64 // lifetime
	BadTotal      uint64
	// BurnRate is badFraction / (1 - objective) over the window: 1.0
	// consumes the budget exactly, >1 is over-burning.
	BurnRate float64
	// BudgetRemaining is the fraction of the window's error budget left
	// (clamped at 0).
	BudgetRemaining float64
}

// Snapshot returns every operation's budget position, sorted by op name.
func (s *SLOSet) Snapshot() []SLOSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SLOSnapshot, 0, len(s.ops))
	nowSec := s.clock()
	for op, o := range s.ops {
		o.mu.Lock()
		now := int64(nowSec / o.width)
		var good, bad uint64
		for _, sl := range o.slots {
			if sl.idx >= 0 && now-sl.idx < int64(len(o.slots)) {
				good += sl.good
				bad += sl.bad
			}
		}
		snap := SLOSnapshot{
			Op: op, Objective: o.cfg.Objective,
			LatencyTarget: o.cfg.LatencyTarget, Window: o.cfg.Window,
			Good: good, Bad: bad,
			GoodTotal: o.goodTotal, BadTotal: o.badTotal,
		}
		o.mu.Unlock()
		if total := good + bad; total > 0 {
			badFrac := float64(bad) / float64(total)
			snap.BurnRate = badFrac / (1 - o.cfg.Objective)
			snap.BudgetRemaining = 1 - snap.BurnRate
			if snap.BudgetRemaining < 0 {
				snap.BudgetRemaining = 0
			}
		} else {
			snap.BudgetRemaining = 1
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// sloLabel renders an op name as a Prometheus label value.
func sloLabel(op string) string {
	op = strings.ReplaceAll(op, `\`, `\\`)
	return strings.ReplaceAll(op, `"`, `\"`)
}

// writePrometheus renders the set under its registered name: burn-rate and
// budget gauges plus lifetime good/bad counters, one labeled sample per
// operation. The TYPE headers always appear, so the exposition carries the
// registered name even before the first observation.
func (s *SLOSet) writePrometheus(w io.Writer, name string) error {
	snaps := s.Snapshot()
	if _, err := fmt.Fprintf(w, "# TYPE %s_burn_rate gauge\n# TYPE %s_budget_remaining gauge\n# TYPE %s_good_total counter\n# TYPE %s_bad_total counter\n",
		name, name, name, name); err != nil {
		return err
	}
	for _, sn := range snaps {
		op := sloLabel(sn.Op)
		if _, err := fmt.Fprintf(w,
			"%s_burn_rate{op=%q} %g\n%s_budget_remaining{op=%q} %g\n%s_good_total{op=%q} %d\n%s_bad_total{op=%q} %d\n",
			name, op, sn.BurnRate, name, op, sn.BudgetRemaining,
			name, op, sn.GoodTotal, name, op, sn.BadTotal); err != nil {
			return err
		}
	}
	return nil
}

// jsonValue renders the set for the /debug/vars document.
func (s *SLOSet) jsonValue() any {
	snaps := s.Snapshot()
	m := make(map[string]any, len(snaps))
	for _, sn := range snaps {
		m[sn.Op] = map[string]any{
			"objective":        sn.Objective,
			"latency_target":   sn.LatencyTarget,
			"window_seconds":   sn.Window,
			"good":             sn.Good,
			"bad":              sn.Bad,
			"good_total":       sn.GoodTotal,
			"bad_total":        sn.BadTotal,
			"burn_rate":        sn.BurnRate,
			"budget_remaining": sn.BudgetRemaining,
		}
	}
	return m
}
