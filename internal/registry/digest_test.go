package registry_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/registry"
)

func TestDigestRoundTrip(t *testing.T) {
	d := registry.Digest{
		Dispatches: 12345, Sheds: 67, Depth: 4,
		P50: 0.0015, P95: 0.0421, P99: 0.1337,
	}
	got, ok := registry.ParseDigest(d.Encode())
	if !ok {
		t.Fatalf("ParseDigest(%q) not ok", d.Encode())
	}
	if got.Dispatches != d.Dispatches || got.Sheds != d.Sheds || got.Depth != d.Depth {
		t.Fatalf("counters round-trip: got %+v, want %+v", got, d)
	}
	// Quantiles travel as integer nanoseconds: round-trip within 1ns.
	for _, q := range [][2]float64{{got.P50, d.P50}, {got.P95, d.P95}, {got.P99, d.P99}} {
		if math.Abs(q[0]-q[1]) > 1e-9 {
			t.Fatalf("quantile round-trip: got %+v, want %+v", got, d)
		}
	}
}

// TestDigestForwardCompat: unknown keys and future versions parse (readers
// gate on the version they understand and ignore the rest); garbage does not.
func TestDigestForwardCompat(t *testing.T) {
	d, ok := registry.ParseDigest("2;n=7;hotness=9000;p95ns=5000000;future_field=x")
	if !ok {
		t.Fatal("future-versioned digest with unknown keys rejected")
	}
	if d.Dispatches != 7 || d.P95 != 0.005 {
		t.Fatalf("known keys mis-parsed: %+v", d)
	}
	for _, bad := range []string{"", "nope;n=1", ";n=1", "0;n=1"} {
		if _, ok := registry.ParseDigest(bad); ok {
			t.Errorf("ParseDigest(%q) ok, want rejection", bad)
		}
	}
}

// TestDigestQuantilesRoundTripExactly: a quantile that came off the wire
// goes back on it as the same nanosecond count — truncating instead of
// rounding sent 15 ns back as 14 — and values ParseDigest does not accept
// leave the field as it was.
func TestDigestQuantilesRoundTripExactly(t *testing.T) {
	for _, ns := range append(seq(0, 100000), 1e9+15, 1<<40+1, 1<<50) {
		in := fmt.Sprintf("1;p50ns=%d", ns)
		d, _ := registry.ParseDigest(in)
		if got := d.Encode(); !strings.Contains(got, fmt.Sprintf(";p50ns=%d;", ns)) {
			t.Fatalf("%q encodes back as %q", in, got)
		}
	}
	d, ok := registry.ParseDigest("1;depth=3;p95ns=5;depth=-1;p95ns=-5;p99ns=-1;p50ns=1125899906842625")
	if want := (registry.Digest{Depth: 3, P95: 5e-9}); !ok || d != want {
		t.Fatalf("ParseDigest = %+v, %v; want %+v", d, ok, want)
	}
}

func seq(lo, hi int64) []int64 {
	var s []int64
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// FuzzParseDigest: ParseDigest never panics, accepts no negative depth or
// quantile, and what it accepts encodes back to itself.
func FuzzParseDigest(f *testing.F) {
	f.Add(registry.Digest{Dispatches: 12345, Sheds: 67, Depth: 4, P50: 0.0015, P95: 0.0421, P99: 0.1337}.Encode())
	f.Add("2;n=7;hotness=9000;p95ns=5000000;future_field=x")
	f.Add("1;depth=-3;p50ns=-1;p99ns=9223372036854775807;shed=18446744073709551615")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		d, ok := registry.ParseDigest(s)
		if !ok {
			if d != (registry.Digest{}) {
				t.Fatalf("rejected %q but returned %+v", s, d)
			}
			return
		}
		if d.Depth < 0 || d.P50 < 0 || d.P95 < 0 || d.P99 < 0 {
			t.Fatalf("%q parsed to a negative field: %+v", s, d)
		}
		again, ok := registry.ParseDigest(d.Encode())
		if !ok || again != d {
			t.Fatalf("%q: %+v encodes as %q, which parses to %+v, %v", s, d, d.Encode(), again, ok)
		}
	})
}

// report pushes one digest heartbeat through the servant interface.
func report(t *testing.T, repo *registry.Repository, name, id string, d registry.Digest) {
	t.Helper()
	res, err := repo.ReportLoad(nil, name, id, d.P95, int32(d.Depth), d.Encode())
	if err != nil || res != 1 {
		t.Fatalf("report_load %s/%s: res=%v err=%v", name, id, res, err)
	}
}

// TestClusterAggregationAcrossJoinAndExpiry walks a group through the
// member lifecycle on an injected clock and checks the rollups track it:
// digest reporters aggregate, a load-only reporter (empty digest) updates
// its load and counts as a member but not a reporter, expired members leave
// the rollup, and a rejoin comes back.
func TestClusterAggregationAcrossJoinAndExpiry(t *testing.T) {
	now := 0.0
	repo := registry.NewRepository()
	repo.SetClock(handClock{now: &now})
	repo.SetMemberTTL(2)

	reg := func(id string) {
		if err := repo.RegisterMember(nil, "svc", id, memberIOR(id, "").String()); err != nil {
			t.Fatal(err)
		}
	}
	reg("m0")
	reg("m1")
	reg("m2")
	report(t, repo, "svc", "m0", registry.Digest{Dispatches: 100, Sheds: 5, Depth: 2, P50: 0.001, P95: 0.010, P99: 0.020})
	report(t, repo, "svc", "m1", registry.Digest{Dispatches: 50, Depth: 1, P95: 0.020, P99: 0.050})
	// m2 reports load only: an empty digest, which must not count it as
	// reporting.
	if got := repo.ClusterSnapshot()[0].Rollup.Reporting; got != 2 {
		t.Fatalf("reporting = %d after two digest reports, want 2", got)
	}
	if _, err := repo.ReportLoad(nil, "svc", "m2", 0.03, 3, ""); err != nil {
		t.Fatal(err)
	}

	snap := repo.ClusterSnapshot()
	if len(snap) != 1 || snap[0].Name != "svc" {
		t.Fatalf("snapshot = %+v, want one group svc", snap)
	}
	r := snap[0].Rollup
	if r.Members != 3 || r.Reporting != 2 {
		t.Fatalf("members/reporting = %d/%d, want 3/2", r.Members, r.Reporting)
	}
	if r.Dispatches != 150 || r.Sheds != 5 || r.Depth != 3 {
		t.Fatalf("sums = n:%d shed:%d depth:%d, want 150/5/3", r.Dispatches, r.Sheds, r.Depth)
	}
	if math.Abs(r.MeanP95-0.015) > 1e-9 || math.Abs(r.WorstP99-0.050) > 1e-9 {
		t.Fatalf("quantile rollup = mean p95 %g, worst p99 %g; want 0.015/0.050", r.MeanP95, r.WorstP99)
	}
	// The load-only reporter appears as a member with its load recorded
	// and nil Metrics.
	for _, m := range snap[0].Members {
		if m.ID == "m2" && (m.Metrics != nil || m.P95 != 0.03 || m.Depth != 3) {
			t.Fatalf("load-only reporter m2 = %+v (Metrics %+v), want p95 0.03, depth 3, nil Metrics", m.MemberInfo, m.Metrics)
		}
		if m.ID == "m0" && (m.Metrics == nil || m.Metrics.Dispatches != 100) {
			t.Fatalf("digest reporter m0 metrics = %+v", m.Metrics)
		}
	}

	// m0 and m2 go silent; m1 keeps beating past the TTL. The sweep drops
	// the silent two and the rollup follows.
	now = 1.5
	report(t, repo, "svc", "m1", registry.Digest{Dispatches: 70, Depth: 1, P95: 0.020, P99: 0.050})
	now = 2.5
	report(t, repo, "svc", "m1", registry.Digest{Dispatches: 80, Depth: 1, P95: 0.020, P99: 0.050})
	repo.SweepExpired()
	r = repo.ClusterSnapshot()[0].Rollup
	if r.Members != 1 || r.Reporting != 1 || r.Dispatches != 80 {
		t.Fatalf("after expiry: members %d reporting %d n %d, want 1/1/80", r.Members, r.Reporting, r.Dispatches)
	}

	// The expired member re-registers and reports again: back in the rollup.
	reg("m0")
	report(t, repo, "svc", "m0", registry.Digest{Dispatches: 110, Sheds: 6, Depth: 1, P95: 0.012, P99: 0.021})
	r = repo.ClusterSnapshot()[0].Rollup
	if r.Members != 2 || r.Reporting != 2 || r.Dispatches != 190 {
		t.Fatalf("after rejoin: members %d reporting %d n %d, want 2/2/190", r.Members, r.Reporting, r.Dispatches)
	}
}

func TestWriteFederation(t *testing.T) {
	repo := registry.NewRepository()
	if err := repo.RegisterMember(nil, "svc", "m0", memberIOR("m0", "").String()); err != nil {
		t.Fatal(err)
	}
	report(t, repo, "svc", "m0", registry.Digest{Dispatches: 42, Sheds: 1, Depth: 2, P95: 0.010, P99: 0.030})

	var buf bytes.Buffer
	if err := repo.WriteFederation(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE pardis_group_members gauge",
		`pardis_group_members{group="svc"} 1`,
		`pardis_group_dispatches_total{group="svc"} 42`,
		`pardis_group_sheds_total{group="svc"} 1`,
		`pardis_group_p99_worst_seconds{group="svc"} 0.03`,
		`pardis_member_depth{group="svc",member="m0"} 2`,
		`pardis_member_dispatches_total{group="svc",member="m0"} 42`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federation page missing %q:\n%s", want, text)
		}
	}
}

// TestWriteFederationEscapesLabelsOnce: group and member names go on the
// federation page escaped once, the way the Prometheus text format defines —
// a backslash, a double quote and a newline escaped, UTF-8 as is — so a
// scraper unescapes each label back to the name it was registered under.
func TestWriteFederationEscapesLabelsOnce(t *testing.T) {
	const group, member = `we"ird\näme`, "line\nbreak"
	repo := registry.NewRepository()
	if err := repo.RegisterMember(nil, group, member, memberIOR("m0", "").String()); err != nil {
		t.Fatal(err)
	}
	report(t, repo, group, member, registry.Digest{Dispatches: 42, Depth: 2})
	var buf bytes.Buffer
	if err := repo.WriteFederation(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`pardis_group_members{group="we\"ird\\näme"} 1` + "\n",
		`pardis_member_depth{group="we\"ird\\näme",member="line\nbreak"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federation page missing %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "pardis_member_depth{") {
			continue
		}
		labels := strings.TrimSuffix(strings.TrimPrefix(line, "pardis_member_depth{"), "} 2")
		g, m, ok := strings.Cut(labels, `",member="`)
		if !ok || unescapeLabel(strings.TrimPrefix(g, `group="`)) != group || unescapeLabel(strings.TrimSuffix(m, `"`)) != member {
			t.Errorf("labels %s do not unescape to %q and %q", labels, group, member)
		}
	}
}

// unescapeLabel undoes the text format's label escaping.
func unescapeLabel(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// waitFor polls cond for up to two seconds of wall time — heartbeat loops
// tick on real wall-clock periods.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHeartbeatDigestDelivery: the digest heartbeat lands its payload in
// the repository's cluster snapshot.
func TestHeartbeatDigestDelivery(t *testing.T) {
	repo := registry.NewRepository()
	fab := nexus.NewInproc()
	addr, stop := startRepoWith(t, fab, repo)
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("hb")), nil, nil)
	c, err := registry.Open(orb, addr)
	if err != nil {
		t.Fatal(err)
	}

	hb := registry.StartHeartbeat(c, "svc", "m0", memberIOR("m0", ""), 0.005, func() registry.Digest {
		return registry.Digest{Dispatches: 9, Depth: 1, P95: 0.002, P99: 0.004}
	})
	defer hb.Stop()

	waitFor(t, "digest to land", func() bool {
		snap := repo.ClusterSnapshot()
		return len(snap) == 1 && snap[0].Rollup.Reporting == 1 &&
			snap[0].Rollup.Dispatches == 9
	})
}
