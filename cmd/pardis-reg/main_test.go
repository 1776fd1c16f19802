package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pardis/internal/obs/obshttp"
	"pardis/internal/registry"
)

// TestSweepPeriod: the sweep follows the TTL the repository uses — a
// non-positive -member-ttl falls back to DefaultMemberTTL, and so does the
// sweep derived from it — and a period under 1 ns is an error, not a
// ticker panic.
func TestSweepPeriod(t *testing.T) {
	ttlOf := func(set float64) float64 {
		repo := registry.NewRepository()
		repo.SetMemberTTL(set)
		return repo.MemberTTL()
	}
	half := time.Duration(registry.DefaultMemberTTL / 2 * float64(time.Second))
	for _, c := range []struct {
		sweep, ttl float64
		want       time.Duration
	}{
		{0, 0, half},
		{0, -3, half},
		{0, 4, 2 * time.Second},
		{-1, 4, 2 * time.Second},
		{3, 0, 3 * time.Second},
		{1e-9, 4, time.Nanosecond},
	} {
		got, err := sweepPeriod(c.sweep, ttlOf(c.ttl))
		if err != nil || got != c.want {
			t.Errorf("sweep %g, member-ttl %g: period %v, %v; want %v", c.sweep, c.ttl, got, err, c.want)
		}
	}
	for _, c := range []struct{ sweep, ttl float64 }{{1e-12, 4}, {0, 1e-12}} {
		if got, err := sweepPeriod(c.sweep, ttlOf(c.ttl)); err == nil {
			t.Errorf("sweep %g, member-ttl %g: period %v, want an error", c.sweep, c.ttl, got)
		}
	}
}

// TestDebugPages: the -debug endpoint serves the repository's three pages,
// each reading the live repository.
func TestDebugPages(t *testing.T) {
	repo := registry.NewRepository()
	if err := repo.RegisterMember(nil, "svc", "m0", "ior-m0"); err != nil {
		t.Fatal(err)
	}
	h := obshttp.Handler(nil, nil, nil, debugPages(repo))
	for path, want := range map[string]string{
		"/debug/groups":   "svc:\n  m0 ",
		"/debug/cluster":  `"svc"`,
		"/debug/federate": `pardis_group_members{group="svc"} 1`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: status %d, body missing %q:\n%s", path, rec.Code, want, rec.Body)
		}
	}
}
