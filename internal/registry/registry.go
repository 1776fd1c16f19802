// Package registry implements PARDIS' Object Repository and Implementation
// Repository, plus activation agents.
//
// A repository defines a naming domain: objects register on activation and
// clients search it when binding by name ("each repository is associated
// with a unique namespace; configuring clients and servers to work with
// different repositories allows the programmer to split the namespace").
// The Implementation Repository maps names of non-persistent servers to the
// activation agents that can start them; agents reside on the server's
// host and can be run in activating or non-activating mode.
//
// The repository and the agent are ordinary PARDIS single objects served
// through the POA. Their interfaces are declared in registry.idl and
// generated into package regidl: serve one with
// regidl.RegisterRepositorySingle(adapter, RepositoryKey, repo). Clients
// reach a repository with a bootstrap IOR built from its well-known
// endpoint address.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry/regidl"
)

// ErrNotFound is returned when a name has no registration.
var ErrNotFound = errors.New("registry: name not bound")

// RepositoryKey is the well-known object key of a repository.
const RepositoryKey = "PARDIS:repository"

// AgentKeyPrefix prefixes activation-agent object keys.
const AgentKeyPrefix = "PARDIS:agent:"

// Repository is the servant holding both naming tables and the group
// membership tables; it implements regidl.RepositoryServant. Thread-safe: the repository may also be queried
// through a LocalTable bypass from other goroutines of the same process,
// and SweepExpired/GroupsSnapshot run from daemon timers.
type Repository struct {
	mu    sync.Mutex
	objs  map[string]string // name -> stringified IOR
	impls map[string]string // name -> stringified agent IOR

	// Group state (see group.go): name -> replica set, the pick policy,
	// the member expiry horizon, and the clock member ages are measured on.
	groups map[string]*group
	picker *Picker
	ttl    float64
	clock  nexus.TimedWait
}

// NewRepository creates empty tables.
func NewRepository() *Repository {
	return &Repository{
		objs:   map[string]string{},
		impls:  map[string]string{},
		groups: map[string]*group{},
		picker: NewPicker(1),
	}
}

// Register implements repository::register.
func (r *Repository) Register(_ *poa.Context, name, ior string) error {
	if name == "" {
		return errors.New("empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.objs[name] = ior
	return nil
}

// Lookup implements repository::lookup.
func (r *Repository) Lookup(_ *poa.Context, name string) (int32, string, error) {
	return r.find(r.objs, name)
}

// Unregister implements repository::unregister. It clears both the name's
// plain binding and its whole group — the name is gone, not one replica of
// it (that is UnregisterMember).
func (r *Repository) Unregister(_ *poa.Context, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.objs, name)
	if g := r.groups[name]; g != nil {
		groupMembers.Add(-int64(len(g.members)))
		delete(r.groups, name)
	}
	return nil
}

// List implements repository::list: every bound name, sorted.
func (r *Repository) List(*poa.Context) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.objs))
	for n := range r.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// RegisterImpl implements repository::register_impl.
func (r *Repository) RegisterImpl(_ *poa.Context, name, agentIOR string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.impls[name] = agentIOR
	return nil
}

// LookupImpl implements repository::lookup_impl.
func (r *Repository) LookupImpl(_ *poa.Context, name string) (int32, string, error) {
	return r.find(r.impls, name)
}

// find reads one naming table: 1 and the IOR when name is bound, else 0.
func (r *Repository) find(table map[string]string, name string) (int32, string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ior, ok := table[name]; ok {
		return 1, ior, nil
	}
	return 0, "", nil
}

// BootstrapIOR builds the reference clients use to reach a repository at a
// well-known transport address.
func BootstrapIOR(addr string) core.IOR {
	return core.IOR{
		Interface:  "repository",
		Key:        RepositoryKey,
		ServerSize: 1,
		Addrs:      []string{addr},
	}
}

// Client wraps the generated repository proxy, turning its stringified
// IORs and found flags into core.IOR values and ErrNotFound.
type Client struct {
	p *regidl.Repository
}

// Open binds an ORB to the repository at the given transport address.
func Open(orb *core.ORB, addr string) (*Client, error) {
	p, err := regidl.BindRepository(orb, BootstrapIOR(addr))
	if err != nil {
		return nil, err
	}
	return &Client{p: p}, nil
}

// Register binds a name to an object reference.
func (c *Client) Register(name string, ior core.IOR) error {
	return c.p.Register(name, ior.String())
}

// Lookup resolves a name to an object reference.
func (c *Client) Lookup(name string) (core.IOR, error) {
	found, ior, err := c.p.Lookup(name)
	return boundIOR(found, ior, err, name)
}

// boundIOR parses the IOR a lookup returned, or reports ErrNotFound for
// what when the lookup found nothing.
func boundIOR(found int32, ior string, err error, what string) (core.IOR, error) {
	if err != nil {
		return core.IOR{}, err
	}
	if found == 0 {
		return core.IOR{}, fmt.Errorf("%w: %s", ErrNotFound, what)
	}
	return core.ParseIOR(ior)
}

// Unregister removes a name binding.
func (c *Client) Unregister(name string) error { return c.p.Unregister(name) }

// List returns all bound names, sorted.
func (c *Client) List() ([]string, error) { return c.p.List() }

// SetDeadline bounds every subsequent repository call (seconds; 0 restores
// unbounded waiting) — heartbeat loops set it to their period so a dead or
// partitioned repository never wedges a replica.
func (c *Client) SetDeadline(seconds float64) { c.p.Binding().SetDeadline(seconds) }

// SetRetryPolicy arms retries on the repository binding. Every group
// operation is idempotent, so retrying through a lossy fabric is safe.
func (c *Client) SetRetryPolicy(rp core.RetryPolicy) { c.p.Binding().SetRetryPolicy(rp) }

// RegisterMember adds (or refreshes) one replica of the named group.
// memberID distinguishes replicas; re-registering an id upserts its IOR.
func (c *Client) RegisterMember(name, memberID string, ior core.IOR) error {
	return c.p.RegisterMember(name, memberID, ior.String())
}

// UnregisterMember removes one replica; the group disappears with its last
// member. The whole name is removed by Unregister.
func (c *Client) UnregisterMember(name, memberID string) error {
	return c.p.UnregisterMember(name, memberID)
}

// ReportLoad pushes one replica's load snapshot (p95 dispatch latency in
// seconds, accepted-queue depth) and its encoded metrics digest (see
// Digest.Encode; "" reports load only). The false return means the
// repository no longer knows the member — it expired — and the replica
// should re-register before the next report.
func (c *Client) ReportLoad(name, memberID string, p95 float64, depth int, digest string) (bool, error) {
	known, err := c.p.ReportLoad(name, memberID, p95, int32(depth), digest)
	return known != 0, err
}

// ResolveGroup resolves a group name to its live members, best first (the
// repository's pick policy chooses the head; the rest is the failover
// order). ErrNotFound when the name has no live group.
func (c *Client) ResolveGroup(name string) ([]core.IOR, error) {
	n, strs, err := c.p.ResolveGroup(name)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: group %s", ErrNotFound, name)
	}
	iors := make([]core.IOR, 0, len(strs))
	for _, s := range strs {
		ior, perr := core.ParseIOR(s)
		if perr != nil {
			return nil, fmt.Errorf("registry: group %s member: %w", name, perr)
		}
		iors = append(iors, ior)
	}
	return iors, nil
}

// GroupResolver adapts ResolveGroup to the ORB's group-binding resolver:
// orb.BindGroup(c.GroupResolver("service"), iface) gives a reference whose
// failover path re-consults this repository on every member switch.
func (c *Client) GroupResolver(name string) core.GroupResolver {
	return func() ([]core.IOR, error) { return c.ResolveGroup(name) }
}

// RegisterImpl records the activation agent able to start the named
// (non-persistent) server — the paper's register facility.
func (c *Client) RegisterImpl(name string, agent core.IOR) error {
	return c.p.RegisterImpl(name, agent.String())
}

// LookupImpl resolves a name to its activation agent.
func (c *Client) LookupImpl(name string) (core.IOR, error) {
	found, ior, err := c.p.LookupImpl(name)
	return boundIOR(found, ior, err, "no implementation for "+name)
}

// Resolve looks a name up, and if it is not yet registered but an
// implementation entry exists, asks the activation agent to start the
// server and retries — the bind-time activation path. hostFilter, when
// non-empty, requires the resolved object to live on the given host.
//
// A name registered as a group resolves too: the pick-policy head when no
// hostFilter is set, otherwise the best member on the requested host (a
// plain registration's host mismatch stays an error — there is only one
// candidate to disagree with).
func (c *Client) Resolve(orb *core.ORB, name, hostFilter string) (core.IOR, error) {
	ior, err := c.Lookup(name)
	if errors.Is(err, ErrNotFound) {
		if members, gerr := c.ResolveGroup(name); gerr == nil {
			for _, m := range members {
				if hostFilter == "" || m.Host == "" || strings.EqualFold(m.Host, hostFilter) {
					return m, nil
				}
			}
			return core.IOR{}, fmt.Errorf("registry: no member of group %s on host %q", name, hostFilter)
		}
		agentIOR, aerr := c.LookupImpl(name)
		if aerr != nil {
			return core.IOR{}, err // original not-found is the real story
		}
		agent, berr := regidl.BindActivator(orb, agentIOR)
		if berr != nil {
			return core.IOR{}, berr
		}
		started, ierr := agent.Activate(name)
		if ierr != nil {
			return core.IOR{}, fmt.Errorf("registry: activation of %s failed: %w", name, ierr)
		}
		if started == 0 {
			return core.IOR{}, fmt.Errorf("registry: agent refused to activate %s", name)
		}
		ior, err = c.Lookup(name)
	}
	if err != nil {
		return core.IOR{}, err
	}
	if hostFilter != "" && ior.Host != "" && !strings.EqualFold(ior.Host, hostFilter) {
		return core.IOR{}, fmt.Errorf("registry: %s lives on host %q, want %q", name, ior.Host, hostFilter)
	}
	return ior, nil
}

// Agent is an activation-agent servant (regidl.ActivatorServant): it starts registered server
// factories on demand. In activating mode the factory runs; in
// non-activating mode requests are refused — the paper's two agent
// configurations limiting interference with the server host.
type Agent struct {
	mu        sync.Mutex
	factories map[string]func() error
	started   map[string]bool
	// Activating toggles whether the agent will start servers.
	Activating bool
}

// NewAgent creates an agent in activating mode.
func NewAgent() *Agent {
	return &Agent{factories: map[string]func() error{}, started: map[string]bool{}, Activating: true}
}

// AddFactory registers a server-start function under a name.
func (a *Agent) AddFactory(name string, f func() error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.factories[name] = f
}

// Activate implements activator::activate: 1 when the named server runs
// (started now or earlier), 0 when the agent will not start it.
func (a *Agent) Activate(_ *poa.Context, name string) (int32, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.Activating {
		return 0, nil
	}
	f, ok := a.factories[name]
	if !ok {
		return 0, nil
	}
	if a.started[name] {
		return 1, nil // already running
	}
	if err := f(); err != nil {
		return 0, fmt.Errorf("activator: starting %s: %s", name, err)
	}
	a.started[name] = true
	return 1, nil
}
