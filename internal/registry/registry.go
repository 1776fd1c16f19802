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
// The repository itself is an ordinary PARDIS single object served through
// the POA — clients reach it with a bootstrap IOR built from its well-known
// endpoint address.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pardis/internal/core"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// ErrNotFound is returned when a name has no registration.
var ErrNotFound = errors.New("registry: name not bound")

// RepositoryKey is the well-known object key of a repository.
const RepositoryKey = "PARDIS:repository"

// AgentKeyPrefix prefixes activation-agent object keys.
const AgentKeyPrefix = "PARDIS:agent:"

// Iface returns the repository's IDL interface:
//
//	interface repository {
//	    void   register(in string name, in string ior);
//	    long   lookup(in string name, out string ior);
//	    void   unregister(in string name);
//	    void   list(out sequence<string> names);
//	    void   register_impl(in string name, in string agent_ior);
//	    long   lookup_impl(in string name, out string agent_ior);
//	    void   register_member(in string name, in string member_id, in string ior);
//	    void   unregister_member(in string name, in string member_id);
//	    long   report_load(in string name, in string member_id, in double p95, in long depth, in string digest);
//	    long   resolve_group(in string name, out sequence<string> iors);
//	};
//
// The group operations are idempotent: re-registering a member upserts,
// re-reporting overwrites, and resolve_group is a read — so clients may arm
// retries (and group heartbeats survive a lost reply).
//
// report_load's digest is the metrics-federation payload; an empty one is a
// load-only report. The digest string is self-versioned, so its fields can
// grow without touching the operation (see Digest).
func Iface() *core.InterfaceDef {
	str := typecode.TCString
	return &core.InterfaceDef{
		Name: "repository",
		Ops: []core.Operation{
			{Name: "register", Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("ior", core.In, str),
			}},
			{Name: "lookup", Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("ior", core.Out, str),
			}, Result: typecode.TCLong},
			{Name: "unregister", Params: []core.Param{
				core.NewParam("name", core.In, str),
			}},
			{Name: "list", Params: []core.Param{
				core.NewParam("names", core.Out, typecode.SequenceOf(str, 0)),
			}},
			{Name: "register_impl", Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("agent_ior", core.In, str),
			}},
			{Name: "lookup_impl", Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("agent_ior", core.Out, str),
			}, Result: typecode.TCLong},
			{Name: "register_member", Idempotent: true, Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("member_id", core.In, str),
				core.NewParam("ior", core.In, str),
			}},
			{Name: "unregister_member", Idempotent: true, Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("member_id", core.In, str),
			}},
			{Name: "report_load", Idempotent: true, Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("member_id", core.In, str),
				core.NewParam("p95", core.In, typecode.TCDouble),
				core.NewParam("depth", core.In, typecode.TCLong),
				core.NewParam("digest", core.In, str),
			}, Result: typecode.TCLong},
			{Name: "resolve_group", Idempotent: true, Params: []core.Param{
				core.NewParam("name", core.In, str),
				core.NewParam("iors", core.Out, typecode.SequenceOf(str, 0)),
			}, Result: typecode.TCLong},
		},
	}
}

// AgentIface returns an activation agent's IDL interface:
//
//	interface activator {
//	    long activate(in string name);
//	};
func AgentIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "activator",
		Ops: []core.Operation{
			{Name: "activate", Params: []core.Param{
				core.NewParam("name", core.In, typecode.TCString),
			}, Result: typecode.TCLong},
		},
	}
}

// Repository is the servant holding both naming tables and the group
// membership tables. Thread-safe: the repository may also be queried
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
	clock  func() float64
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

// Invoke implements poa.Servant.
func (r *Repository) Invoke(_ *poa.Context, op string, in []any) (any, []any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op {
	case "register":
		name, ior := in[0].(string), in[1].(string)
		if name == "" {
			return nil, nil, errors.New("empty name")
		}
		r.objs[name] = ior
		return nil, nil, nil
	case "lookup":
		ior, ok := r.objs[in[0].(string)]
		return boolLong(ok), []any{ior}, nil
	case "unregister":
		// Unregistering a name clears both its plain binding and its whole
		// group — the name is gone, not one replica of it (that is
		// unregister_member).
		name := in[0].(string)
		delete(r.objs, name)
		r.dropGroupLocked(name)
		return nil, nil, nil
	case "list":
		names := make([]string, 0, len(r.objs))
		for n := range r.objs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, []any{names}, nil
	case "register_impl":
		r.impls[in[0].(string)] = in[1].(string)
		return nil, nil, nil
	case "lookup_impl":
		ior, ok := r.impls[in[0].(string)]
		return boolLong(ok), []any{ior}, nil
	case "register_member":
		name := in[0].(string)
		if name == "" {
			return nil, nil, errors.New("empty name")
		}
		r.registerMemberLocked(name, in[1].(string), in[2].(string))
		return nil, nil, nil
	case "unregister_member":
		r.unregisterMemberLocked(in[0].(string), in[1].(string))
		return nil, nil, nil
	case "report_load":
		ok := r.reportLoadLocked(in[0].(string), in[1].(string), in[2].(float64), int(in[3].(int32)), in[4].(string))
		return boolLong(ok), nil, nil
	case "resolve_group":
		iors := r.resolveGroupLocked(in[0].(string))
		return int32(len(iors)), []any{iors}, nil
	}
	return nil, nil, fmt.Errorf("repository: no operation %s", op)
}

func boolLong(b bool) int32 {
	if b {
		return 1
	}
	return 0
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

// Client wraps a binding to a repository with typed accessors.
type Client struct {
	b *core.Binding
}

// Open binds an ORB to the repository at the given transport address.
func Open(orb *core.ORB, addr string) (*Client, error) {
	b, err := orb.Bind(BootstrapIOR(addr), Iface())
	if err != nil {
		return nil, err
	}
	return &Client{b: b}, nil
}

// Register binds a name to an object reference.
func (c *Client) Register(name string, ior core.IOR) error {
	_, err := c.b.Invoke("register", []any{name, ior.String()})
	return err
}

// Lookup resolves a name to an object reference.
func (c *Client) Lookup(name string) (core.IOR, error) {
	vals, err := c.b.Invoke("lookup", []any{name, nil})
	if err != nil {
		return core.IOR{}, err
	}
	if vals[0].(int32) == 0 {
		return core.IOR{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return core.ParseIOR(vals[1].(string))
}

// Unregister removes a name binding.
func (c *Client) Unregister(name string) error {
	_, err := c.b.Invoke("unregister", []any{name})
	return err
}

// List returns all bound names, sorted.
func (c *Client) List() ([]string, error) {
	vals, err := c.b.Invoke("list", []any{nil})
	if err != nil {
		return nil, err
	}
	return vals[0].([]string), nil
}

// SetDeadline bounds every subsequent repository call (seconds; 0 restores
// unbounded waiting) — heartbeat loops set it to their period so a dead or
// partitioned repository never wedges a replica.
func (c *Client) SetDeadline(seconds float64) { c.b.SetDeadline(seconds) }

// SetRetryPolicy arms retries on the repository binding. Every group
// operation is idempotent, so retrying through a lossy fabric is safe.
func (c *Client) SetRetryPolicy(rp core.RetryPolicy) { c.b.SetRetryPolicy(rp) }

// RegisterMember adds (or refreshes) one replica of the named group.
// memberID distinguishes replicas; re-registering an id upserts its IOR.
func (c *Client) RegisterMember(name, memberID string, ior core.IOR) error {
	_, err := c.b.Invoke("register_member", []any{name, memberID, ior.String()})
	return err
}

// UnregisterMember removes one replica; the group disappears with its last
// member. The whole name is removed by Unregister.
func (c *Client) UnregisterMember(name, memberID string) error {
	_, err := c.b.Invoke("unregister_member", []any{name, memberID})
	return err
}

// ReportLoad pushes one replica's load snapshot (p95 dispatch latency in
// seconds, accepted-queue depth) and its encoded metrics digest (see
// Digest.Encode; "" reports load only). The false return means the
// repository no longer knows the member — it expired — and the replica
// should re-register before the next report.
func (c *Client) ReportLoad(name, memberID string, p95 float64, depth int, digest string) (bool, error) {
	vals, err := c.b.Invoke("report_load", []any{name, memberID, p95, int32(depth), digest})
	if err != nil {
		return false, err
	}
	return vals[0].(int32) != 0, nil
}

// ResolveGroup resolves a group name to its live members, best first (the
// repository's pick policy chooses the head; the rest is the failover
// order). ErrNotFound when the name has no live group.
func (c *Client) ResolveGroup(name string) ([]core.IOR, error) {
	vals, err := c.b.Invoke("resolve_group", []any{name, nil})
	if err != nil {
		return nil, err
	}
	if vals[0].(int32) == 0 {
		return nil, fmt.Errorf("%w: group %s", ErrNotFound, name)
	}
	strs := vals[1].([]string)
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
	_, err := c.b.Invoke("register_impl", []any{name, agent.String()})
	return err
}

// LookupImpl resolves a name to its activation agent.
func (c *Client) LookupImpl(name string) (core.IOR, error) {
	vals, err := c.b.Invoke("lookup_impl", []any{name, nil})
	if err != nil {
		return core.IOR{}, err
	}
	if vals[0].(int32) == 0 {
		return core.IOR{}, fmt.Errorf("%w: no implementation for %s", ErrNotFound, name)
	}
	return core.ParseIOR(vals[1].(string))
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
		ab, berr := orb.Bind(agentIOR, AgentIface())
		if berr != nil {
			return core.IOR{}, berr
		}
		vals, ierr := ab.Invoke("activate", []any{name})
		if ierr != nil {
			return core.IOR{}, fmt.Errorf("registry: activation of %s failed: %w", name, ierr)
		}
		if vals[0].(int32) == 0 {
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

// Agent is an activation-agent servant: it starts registered server
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

// Invoke implements poa.Servant.
func (a *Agent) Invoke(_ *poa.Context, op string, in []any) (any, []any, error) {
	if op != "activate" {
		return nil, nil, fmt.Errorf("activator: no operation %s", op)
	}
	name := in[0].(string)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.Activating {
		return int32(0), nil, nil
	}
	f, ok := a.factories[name]
	if !ok {
		return int32(0), nil, nil
	}
	if a.started[name] {
		return int32(1), nil, nil // already running
	}
	if err := f(); err != nil {
		return nil, nil, fmt.Errorf("activator: starting %s: %s", name, err)
	}
	a.started[name] = true
	return int32(1), nil, nil
}
