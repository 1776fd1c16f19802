package registry_test

import (
	"errors"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// startRepo runs a repository server and returns its address plus a stop
// function.
func startRepo(t *testing.T, fab *nexus.Inproc) (string, func()) {
	t.Helper()
	g := rts.NewChanGroup("repohost", 1)
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("repo"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		if _, err := regidl.RegisterRepositorySingle(p, registry.RepositoryKey, registry.NewRepository()); err != nil {
			t.Error(err)
			return
		}
		addrCh <- string(r.Addr())
		p.ImplIsReady()
	}()
	addr := <-addrCh
	stop := func() {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint("stopper")), nil, nil)
		p, _ := regidl.BindRepository(orb, registry.BootstrapIOR(addr))
		p.Binding().Shutdown("test done")
		wg.Wait()
	}
	return addr, stop
}

// startAgent runs an activation agent on its own server, as agents reside
// on the (application) server's host, not the repository's.
func startAgent(t *testing.T, fab *nexus.Inproc, agent *registry.Agent) (core.IOR, func()) {
	t.Helper()
	g := rts.NewChanGroup("apphost", 1)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("agent"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		ior, err := regidl.RegisterActivatorSingle(p, registry.AgentKeyPrefix+"apphost", agent)
		if err != nil {
			t.Error(err)
			return
		}
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior := <-iorCh
	stop := func() {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint("agent-stopper")), nil, nil)
		a, _ := regidl.BindActivator(orb, ior)
		a.Binding().Shutdown("test done")
		wg.Wait()
	}
	return ior, stop
}

func dummyIOR(key, host string) core.IOR {
	return core.IOR{Interface: "x", Key: key, ServerSize: 1, Addrs: []string{"inproc://fake/1"}, Host: host}
}

func TestRegisterLookupUnregisterList(t *testing.T) {
	fab := nexus.NewInproc()
	addr, stop := startRepo(t, fab)
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, err := registry.Open(orb, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("solver"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("lookup before register: %v", err)
	}
	want := dummyIOR("obj-1", "onyx")
	if err := c.Register("solver", want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("solver")
	if err != nil || got.Key != "obj-1" || got.Host != "onyx" {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if err := c.Register("viz", dummyIOR("obj-2", "indy")); err != nil {
		t.Fatal(err)
	}
	names, err := c.List()
	if err != nil || len(names) != 2 || names[0] != "solver" || names[1] != "viz" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if err := c.Unregister("solver"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("solver"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("lookup after unregister: %v", err)
	}
}

func TestNamespaceSplitting(t *testing.T) {
	// Two repositories, two namespaces: registrations don't leak.
	fab := nexus.NewInproc()
	addrA, stopA := startRepo(t, fab)
	defer stopA()
	addrB, stopB := startRepo(t, fab)
	defer stopB()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	ca, _ := registry.Open(orb, addrA)
	cb, _ := registry.Open(orb, addrB)
	if err := ca.Register("only-in-a", dummyIOR("k", "h")); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Lookup("only-in-a"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("namespace leaked: %v", err)
	}
	if _, err := ca.Lookup("only-in-a"); err != nil {
		t.Fatal(err)
	}
}

func TestResolveWithActivation(t *testing.T) {
	fab := nexus.NewInproc()
	agent := registry.NewAgent()
	addr, stop := startRepo(t, fab)
	defer stop()
	agentIOR, stopAgent := startAgent(t, fab, agent)
	defer stopAgent()

	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, _ := registry.Open(orb, addr)

	// The factory starts an echo-ish server and registers it, as a real
	// activation would.
	var srvWG sync.WaitGroup
	agent.AddFactory("lazy-server", func() error {
		g := rts.NewChanGroup("lazyhost", 1)
		iorCh := make(chan core.IOR, 1)
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			th := g.Thread(0)
			r := core.NewRouter(fab.NewEndpoint("lazy"))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			iface := &core.InterfaceDef{Name: "nothing", Ops: []core.Operation{
				{Name: "ping", Result: typecode.TCLong},
			}}
			ior, err := p.RegisterSingle("lazy-1", iface, poa.ServantFunc(
				func(*poa.Context, string, []any) (any, []any, error) { return int32(7), nil, nil }))
			if err != nil {
				t.Error(err)
				return
			}
			iorCh <- ior
			p.ImplIsReady()
		}()
		ior := <-iorCh
		// The factory registers on the caller's goroutine — a fresh
		// client connection to the repository.
		orb2 := core.NewORB(core.NewRouter(fab.NewEndpoint("factory-cli")), nil, nil)
		c2, err := registry.Open(orb2, addr)
		if err != nil {
			return err
		}
		return c2.Register("lazy-server", ior)
	})
	if err := c.RegisterImpl("lazy-server", agentIOR); err != nil {
		t.Fatal(err)
	}

	ior, err := c.Resolve(orb, "lazy-server", "")
	if err != nil {
		t.Fatal(err)
	}
	if ior.Key != "lazy-1" {
		t.Fatalf("resolved %+v", ior)
	}
	// The activated server really runs.
	iface := &core.InterfaceDef{Name: "nothing", Ops: []core.Operation{
		{Name: "ping", Result: typecode.TCLong},
	}}
	b, _ := orb.Bind(ior, iface)
	vals, err := b.Invoke("ping", nil)
	if err != nil || vals[0] != int32(7) {
		t.Fatalf("ping = %v, %v", vals, err)
	}
	// Second resolve: already started, no double activation.
	if _, err := c.Resolve(orb, "lazy-server", ""); err != nil {
		t.Fatal(err)
	}
	b.Shutdown("done")
	srvWG.Wait()
}

func TestResolveHostFilter(t *testing.T) {
	fab := nexus.NewInproc()
	addr, stop := startRepo(t, fab)
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, _ := registry.Open(orb, addr)
	c.Register("svc", dummyIOR("k", "powerchallenge"))
	if _, err := c.Resolve(orb, "svc", "powerchallenge"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(orb, "svc", "onyx"); err == nil {
		t.Fatal("host filter did not reject")
	}
}

func TestNonActivatingAgentRefuses(t *testing.T) {
	fab := nexus.NewInproc()
	agent := registry.NewAgent()
	agent.Activating = false
	agent.AddFactory("s", func() error { return nil })
	addr, stop := startRepo(t, fab)
	defer stop()
	agentIOR, stopAgent := startAgent(t, fab, agent)
	defer stopAgent()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, _ := registry.Open(orb, addr)
	c.RegisterImpl("s", agentIOR)
	if _, err := c.Resolve(orb, "s", ""); err == nil {
		t.Fatal("non-activating agent should make Resolve fail")
	}
}

// TestRepositoryIdempotentOps: exactly the group operations are declared
// idempotent in registry.idl. Only those are eligible for the retries
// Client.SetRetryPolicy arms, so a dropped qualifier would turn the group
// heartbeat's retries off without another test noticing.
func TestRepositoryIdempotentOps(t *testing.T) {
	want := map[string]bool{"register_member": true, "unregister_member": true, "report_load": true, "resolve_group": true}
	var got []string
	for _, op := range regidl.RepositoryIDL().Ops {
		if op.Idempotent {
			got = append(got, op.Name)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("idempotent repository operations %v, want %d: register_member, unregister_member, report_load, resolve_group", got, len(want))
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("idempotent repository operations %v: %s should not be", got, name)
		}
	}
}
