package registry

import (
	"errors"
	"fmt"
	"sort"

	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
)

// Group membership and load reports: a registered group name resolves to N
// replica IORs ordered by desirability, with each replica pushing (p95
// latency, queue depth) snapshots on a heartbeat and aging out when the
// reports stop — the repository as the group's control plane rather than a
// passive lookup table.

// DefaultMemberTTL is the member expiry horizon (seconds) when the
// repository owner sets none: a member whose last report is older is
// dropped. By convention the owner sets it to 2× the replicas' heartbeat
// period; reports older than half the TTL (one missed heartbeat) are
// treated as stale by the pick policy but the member stays resolvable.
const DefaultMemberTTL = 10.0

// member is one replica's registration and latest load report.
type member struct {
	id     string
	ior    string
	p95    float64
	depth  int
	at     float64 // repository-clock stamp of the last report
	digest string  // raw metrics digest of the last report that carried one ("" = load-only reporter)
}

// group is one name's replica set.
type group struct {
	members []*member // registration order
}

// SetClock sets the clock members age on: the thread clock of the adapter
// serving the repository, whose ORB and POA read it too, so on a simulated
// thread member aging follows modeled time. Unset, it is the process's wall
// clock. Call before serving.
func (r *Repository) SetClock(clock nexus.TimedWait) {
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// SetMemberTTL sets the member expiry horizon, seconds (see
// DefaultMemberTTL). Call with 2× the replicas' heartbeat period.
func (r *Repository) SetMemberTTL(seconds float64) {
	r.mu.Lock()
	r.ttl = seconds
	r.mu.Unlock()
}

// SetPickerSeed reseeds the pick policy, for deterministic tests.
func (r *Repository) SetPickerSeed(seed int64) {
	r.mu.Lock()
	r.picker = NewPicker(seed)
	r.mu.Unlock()
}

// MemberTTL returns the member expiry horizon in use, seconds: the one
// SetMemberTTL set, or DefaultMemberTTL when that was not positive.
func (r *Repository) MemberTTL() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ttlLocked()
}

func (r *Repository) nowLocked() float64 {
	if r.clock != nil {
		return r.clock.Elapsed()
	}
	return float64(obs.NowNS()) / 1e9
}

func (r *Repository) ttlLocked() float64 {
	if r.ttl > 0 {
		return r.ttl
	}
	return DefaultMemberTTL
}

// RegisterMember implements repository::register_member: it upserts one
// member registration.
func (r *Repository) RegisterMember(_ *poa.Context, name, id, ior string) error {
	if name == "" {
		return errors.New("empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.groups[name]
	if g == nil {
		g = &group{}
		r.groups[name] = g
	}
	now := r.nowLocked()
	for _, m := range g.members {
		if m.id == id {
			m.ior = ior
			m.at = now
			return nil
		}
	}
	g.members = append(g.members, &member{id: id, ior: ior, at: now})
	groupMembers.Add(1)
	return nil
}

// UnregisterMember implements repository::unregister_member: it removes
// one member; the group vanishes with its last member.
func (r *Repository) UnregisterMember(_ *poa.Context, name, id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.groups[name]
	if g == nil {
		return nil
	}
	for i, m := range g.members {
		if m.id == id {
			g.members = append(g.members[:i], g.members[i+1:]...)
			groupMembers.Add(-1)
			break
		}
	}
	if len(g.members) == 0 {
		delete(r.groups, name)
	}
	return nil
}

// ReportLoad implements repository::report_load: it records one
// heartbeat. It returns 0 when the member is unknown — expired or never
// registered — telling the replica to re-register rather than report into
// the void.
func (r *Repository) ReportLoad(_ *poa.Context, name, id string, p95 float64, depth int32, digest string) (int32, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(name)
	g := r.groups[name]
	if g == nil {
		return 0, nil
	}
	for _, m := range g.members {
		if m.id == id {
			m.p95 = p95
			m.depth = int(depth)
			m.at = r.nowLocked()
			if digest != "" {
				m.digest = digest
			}
			groupLoadReports.Inc()
			return 1, nil
		}
	}
	return 0, nil
}

// expireLocked drops members of one group whose last report is older than
// the TTL.
func (r *Repository) expireLocked(name string) int {
	g := r.groups[name]
	if g == nil {
		return 0
	}
	cutoff := r.nowLocked() - r.ttlLocked()
	kept := g.members[:0]
	dropped := 0
	for _, m := range g.members {
		if m.at >= cutoff {
			kept = append(kept, m)
		} else {
			dropped++
		}
	}
	g.members = kept
	if dropped > 0 {
		groupMembers.Add(-int64(dropped))
		groupExpired.Add(uint64(dropped))
	}
	if len(g.members) == 0 {
		delete(r.groups, name)
	}
	return dropped
}

// SweepExpired ages every group, returning how many members were dropped.
// Thread-safe; pardis-reg runs it on a timer so dead members disappear even
// while nobody resolves the group.
func (r *Repository) SweepExpired() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := 0
	for name := range r.groups {
		dropped += r.expireLocked(name)
	}
	return dropped
}

// ResolveGroup implements repository::resolve_group: the group's size and
// its member IORs, best first. The pick policy chooses the head
// (power-of-two-choices over fresh loads, or round-robin when every report
// is stale); the remainder is ordered fresh before stale, then ascending
// load, then id — the client's failover sequence.
func (r *Repository) ResolveGroup(_ *poa.Context, name string) (int32, []string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(name)
	g := r.groups[name]
	if g == nil || len(g.members) == 0 {
		return 0, nil, nil
	}
	groupResolves.Inc()
	staleAt := r.nowLocked() - r.ttlLocked()/2
	loads := make([]MemberLoad, len(g.members))
	for i, m := range g.members {
		// Depth breaks p95 ties (notably the all-zero reports right after
		// registration) toward the emptier queue.
		loads[i] = MemberLoad{Load: m.p95 + float64(m.depth)*1e-9, Stale: m.at < staleAt}
	}
	head := r.picker.Pick(loads)
	rest := make([]int, 0, len(g.members)-1)
	for i := range g.members {
		if i != head {
			rest = append(rest, i)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		ia, ib := rest[a], rest[b]
		if loads[ia].Stale != loads[ib].Stale {
			return !loads[ia].Stale
		}
		if loads[ia].Load != loads[ib].Load {
			return loads[ia].Load < loads[ib].Load
		}
		return g.members[ia].id < g.members[ib].id
	})
	out := make([]string, 0, len(g.members))
	out = append(out, g.members[head].ior)
	for _, i := range rest {
		out = append(out, g.members[i].ior)
	}
	return int32(len(out)), out, nil
}

// MemberInfo is one member's state in a GroupsSnapshot.
type MemberInfo struct {
	ID    string
	IOR   string
	P95   float64
	Depth int
	Age   float64 // seconds since the last report
	Stale bool
}

// GroupInfo is one group's state in a GroupsSnapshot.
type GroupInfo struct {
	Name    string
	Members []MemberInfo
}

// GroupsSnapshot returns every group's current membership and load reports,
// sorted by name — the /debug/groups page's data source. Thread-safe.
func (r *Repository) GroupsSnapshot() []GroupInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.nowLocked()
	staleAt := now - r.ttlLocked()/2
	out := make([]GroupInfo, 0, len(r.groups))
	for name, g := range r.groups {
		gi := GroupInfo{Name: name}
		for _, m := range g.members {
			gi.Members = append(gi.Members, MemberInfo{
				ID: m.id, IOR: m.ior, P95: m.p95, Depth: m.depth,
				Age: now - m.at, Stale: m.at < staleAt,
			})
		}
		out = append(out, gi)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

func (g GroupInfo) String() string {
	s := g.Name + ":"
	for _, m := range g.Members {
		flag := ""
		if m.Stale {
			flag = " stale"
		}
		s += fmt.Sprintf("\n  %s p95=%.3fms depth=%d age=%.1fs%s", m.ID, m.P95*1000, m.Depth, m.Age, flag)
	}
	return s
}
