// Metrics federation: each replica's heartbeat carries a compact digest of
// its key instruments, the repository aggregates per-group rollups, and
// pardis-reg serves them as /debug/cluster JSON and a Prometheus
// federation page — one scrape sees the whole group.
//
// The digest travels as a self-versioned string ("1;k=v;...") in the
// report_load operation. Writers always write every field they know;
// readers check the version they understand and ignore unknown keys — so
// the format can grow without touching the operation's signature.
package registry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"pardis/internal/poa"
)

// digestVersion is the version prefix this tree writes.
const digestVersion = 1

// Digest is one replica's metrics summary: the counters and quantiles a
// cluster rollup needs, nothing a full scrape would carry.
type Digest struct {
	Dispatches uint64  // single-object dispatches served
	Sheds      uint64  // requests refused at the admission watermark
	Depth      int     // accepted requests queued or executing now
	P50        float64 // dispatch latency quantiles, seconds
	P95        float64
	P99        float64
}

// Encode renders the digest in wire form. Quantiles travel as integer
// nanoseconds, rounded to the nearest: compact, locale-proof, and lossless
// for any quantile ParseDigest produced.
func (d Digest) Encode() string {
	return fmt.Sprintf("%d;n=%d;shed=%d;depth=%d;p50ns=%d;p95ns=%d;p99ns=%d",
		digestVersion, d.Dispatches, d.Sheds, d.Depth,
		int64(math.Round(d.P50*1e9)), int64(math.Round(d.P95*1e9)), int64(math.Round(d.P99*1e9)))
}

// maxQuantileNS bounds the quantiles ParseDigest accepts, about 13 days:
// below it, seconds held in a float64 round back to the same nanosecond.
const maxQuantileNS = 1 << 50

// ParseDigest decodes a wire digest. Unknown keys are ignored (that is the
// format's whole forward-compatibility story), and so are values that do not
// parse, a negative depth and a quantile that is negative or above
// maxQuantileNS; a missing or unparseable version yields ok=false and a zero
// digest.
func ParseDigest(s string) (d Digest, ok bool) {
	fields := strings.Split(s, ";")
	if len(fields) == 0 {
		return Digest{}, false
	}
	v, err := strconv.Atoi(fields[0])
	if err != nil || v < 1 {
		return Digest{}, false
	}
	for _, f := range fields[1:] {
		k, val, found := strings.Cut(f, "=")
		if !found {
			continue
		}
		switch k {
		case "n":
			d.Dispatches, _ = strconv.ParseUint(val, 10, 64)
		case "shed":
			d.Sheds, _ = strconv.ParseUint(val, 10, 64)
		case "depth":
			if n, err := strconv.Atoi(val); err == nil && n >= 0 {
				d.Depth = n
			}
		case "p50ns":
			d.P50 = parseQuantile(val, d.P50)
		case "p95ns":
			d.P95 = parseQuantile(val, d.P95)
		case "p99ns":
			d.P99 = parseQuantile(val, d.P99)
		}
	}
	return d, true
}

// parseQuantile returns the quantile, in seconds, of a wire value in
// nanoseconds, or old when the value is not one ParseDigest accepts.
func parseQuantile(val string, old float64) float64 {
	ns, err := strconv.ParseInt(val, 10, 64)
	if err != nil || ns < 0 || ns > maxQuantileNS {
		return old
	}
	return float64(ns) / 1e9
}

// AdapterDigest builds a digest source over a POA — the snapshot function
// StartHeartbeat polls each period.
func AdapterDigest(p *poa.POA) func() Digest {
	return func() Digest {
		lat, depth, sheds := p.MetricsSnapshot()
		return Digest{
			Dispatches: lat.Count, Sheds: sheds, Depth: depth,
			P50: lat.P50, P95: lat.P95, P99: lat.P99,
		}
	}
}

// ClusterMember is one member's parsed federation state.
type ClusterMember struct {
	MemberInfo
	// Metrics is the parsed digest of the member's last heartbeat; nil for
	// a member that has only ever reported load (an empty digest).
	Metrics *Digest
}

// ClusterGroup is one group's rollup plus its members.
type ClusterGroup struct {
	Name    string
	Members []ClusterMember
	Rollup  GroupRollup
}

// GroupRollup aggregates one group's digests: sums for the extensive
// quantities, worst-case and mean for the latency quantiles.
type GroupRollup struct {
	Members    int // total registered members
	Reporting  int // members with a parsed digest
	Stale      int
	Dispatches uint64
	Sheds      uint64
	Depth      int
	MeanP95    float64 // over reporting members
	WorstP99   float64
}

// ClusterSnapshot returns every group's members with parsed digests and
// the per-group rollups, sorted by name — the /debug/cluster data source.
// Thread-safe.
func (r *Repository) ClusterSnapshot() []ClusterGroup {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.nowLocked()
	staleAt := now - r.ttlLocked()/2
	out := make([]ClusterGroup, 0, len(r.groups))
	for name, g := range r.groups {
		cg := ClusterGroup{Name: name}
		p95sum := 0.0
		for _, m := range g.members {
			cm := ClusterMember{MemberInfo: MemberInfo{
				ID: m.id, IOR: m.ior, P95: m.p95, Depth: m.depth,
				Age: now - m.at, Stale: m.at < staleAt,
			}}
			if m.digest != "" {
				if d, ok := ParseDigest(m.digest); ok {
					cm.Metrics = &d
				}
			}
			cg.Members = append(cg.Members, cm)
			cg.Rollup.Members++
			if cm.Stale {
				cg.Rollup.Stale++
			}
			if cm.Metrics != nil {
				cg.Rollup.Reporting++
				cg.Rollup.Dispatches += cm.Metrics.Dispatches
				cg.Rollup.Sheds += cm.Metrics.Sheds
				cg.Rollup.Depth += cm.Metrics.Depth
				p95sum += cm.Metrics.P95
				if cm.Metrics.P99 > cg.Rollup.WorstP99 {
					cg.Rollup.WorstP99 = cm.Metrics.P99
				}
			}
		}
		if cg.Rollup.Reporting > 0 {
			cg.Rollup.MeanP95 = p95sum / float64(cg.Rollup.Reporting)
		}
		out = append(out, cg)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// WriteFederation emits the cluster snapshot in Prometheus text form: one
// labeled sample per group for the rollups, one per member for the raw
// digests — the federation page a cluster-level scraper reads instead of
// visiting every replica.
func (r *Repository) WriteFederation(w io.Writer) error {
	snap := r.ClusterSnapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# TYPE pardis_group_members gauge\n")
	p("# TYPE pardis_group_members_stale gauge\n")
	p("# TYPE pardis_group_depth gauge\n")
	p("# TYPE pardis_group_dispatches_total counter\n")
	p("# TYPE pardis_group_sheds_total counter\n")
	p("# TYPE pardis_group_p95_mean_seconds gauge\n")
	p("# TYPE pardis_group_p99_worst_seconds gauge\n")
	for _, g := range snap {
		l := promLabel(g.Name)
		p("pardis_group_members{group=\"%s\"} %d\n", l, g.Rollup.Members)
		p("pardis_group_members_stale{group=\"%s\"} %d\n", l, g.Rollup.Stale)
		p("pardis_group_depth{group=\"%s\"} %d\n", l, g.Rollup.Depth)
		p("pardis_group_dispatches_total{group=\"%s\"} %d\n", l, g.Rollup.Dispatches)
		p("pardis_group_sheds_total{group=\"%s\"} %d\n", l, g.Rollup.Sheds)
		p("pardis_group_p95_mean_seconds{group=\"%s\"} %g\n", l, g.Rollup.MeanP95)
		p("pardis_group_p99_worst_seconds{group=\"%s\"} %g\n", l, g.Rollup.WorstP99)
	}
	p("# TYPE pardis_member_depth gauge\n")
	p("# TYPE pardis_member_dispatches_total counter\n")
	p("# TYPE pardis_member_sheds_total counter\n")
	p("# TYPE pardis_member_p95_seconds gauge\n")
	p("# TYPE pardis_member_p99_seconds gauge\n")
	for _, g := range snap {
		gl := promLabel(g.Name)
		for _, m := range g.Members {
			if m.Metrics == nil {
				continue
			}
			ml := promLabel(m.ID)
			p("pardis_member_depth{group=\"%s\",member=\"%s\"} %d\n", gl, ml, m.Metrics.Depth)
			p("pardis_member_dispatches_total{group=\"%s\",member=\"%s\"} %d\n", gl, ml, m.Metrics.Dispatches)
			p("pardis_member_sheds_total{group=\"%s\",member=\"%s\"} %d\n", gl, ml, m.Metrics.Sheds)
			p("pardis_member_p95_seconds{group=\"%s\",member=\"%s\"} %g\n", gl, ml, m.Metrics.P95)
			p("pardis_member_p99_seconds{group=\"%s\",member=\"%s\"} %g\n", gl, ml, m.Metrics.P99)
		}
	}
	return err
}

// promLabel escapes a string for use between the quotes of a Prometheus
// label value, the way the text format defines: a backslash, a double quote
// and a newline are escaped, everything else — UTF-8 included — is written
// as is.
var promLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace
