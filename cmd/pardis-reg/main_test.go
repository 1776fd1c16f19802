package main

import (
	"testing"
	"time"

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
