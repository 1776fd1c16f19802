// Chaos/failover soak for replicated object groups: a 4-replica group
// registered with a live repository, heartbeats pushing load reports,
// concurrent clients invoking through group bindings — and one replica
// killed mid-run. Idempotent invocations must keep completing through
// failover, a non-idempotent invocation against the corpse must surface its
// InvokeError instead of silently re-executing elsewhere, and the registry
// must age the dead member out within its TTL of two heartbeat periods.
// Everything is seeded; run under -race with the goroutine-leak check
// bracketing the whole scenario.
package pardis_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/obs/leaktest"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

func groupIface() *core.InterfaceDef {
	long := typecode.TCLong
	return &core.InterfaceDef{
		Name: "group_svc",
		Ops: []core.Operation{
			{Name: "get", Params: []core.Param{core.NewParam("x", core.In, long)},
				Result: long, Idempotent: true},
			{Name: "put", Params: []core.Param{core.NewParam("x", core.In, long)},
				Result: long},
		},
	}
}

// rankServant answers with its replica index.
type rankServant struct{ rank int }

func (s *rankServant) Invoke(_ *poa.Context, op string, in []any) (any, []any, error) {
	switch op {
	case "get", "put":
		return int32(s.rank), nil, nil
	}
	return nil, nil, fmt.Errorf("no operation %s", op)
}

// startGroupReplica runs one replica server over a fault-wrapped endpoint
// and returns its IOR, its adapter (the heartbeat's load source) and a join
// func.
func startGroupReplica(t *testing.T, fab *nexus.Inproc, fi *nexus.FaultInjector, rank int) (core.IOR, *poa.POA, func()) {
	t.Helper()
	name := fmt.Sprintf("gr-replica-%d", rank)
	g := rts.NewChanGroup(name, 1)
	iorCh := make(chan core.IOR, 1)
	poaCh := make(chan *poa.POA, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		p := poa.New(th, core.NewRouter(fi.Wrap(fab.NewEndpoint(name))), nil)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle(name, groupIface(), &rankServant{rank: rank})
		if err != nil {
			t.Error(err)
			return
		}
		iorCh <- ior
		poaCh <- p
		p.ImplIsReady()
	}()
	return <-iorCh, <-poaCh, wg.Wait
}

// startGroupRepo runs the repository server with the given member TTL.
func startGroupRepo(t *testing.T, fab *nexus.Inproc, ttl float64) (string, func()) {
	t.Helper()
	repo := registry.NewRepository()
	repo.SetMemberTTL(ttl)
	repo.SetPickerSeed(5)
	g := rts.NewChanGroup("gr-repo", 1)
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("gr-repo"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		if _, err := regidl.RegisterRepositorySingle(p, registry.RepositoryKey, repo); err != nil {
			t.Error(err)
			return
		}
		addrCh <- string(r.Addr())
		p.ImplIsReady()
	}()
	return <-addrCh, wg.Wait
}

func newGroupClient(fab *nexus.Inproc, name string) *core.ORB {
	return core.NewORB(core.NewRouter(fab.NewEndpoint(name)), nil, nil)
}

// TestGroupChaosFailoverSoak is the acceptance scenario for replicated
// groups: 4 replicas behind one group name, 5 concurrent clients, replica 0
// killed between the two invocation phases.
func TestGroupChaosFailoverSoak(t *testing.T) {
	baseline := leaktest.Baseline()
	const (
		replicas = 4
		clients  = 5
		phase1   = 10
		phase2   = 15
		hb       = 0.1
		group    = "chaos-svc"
		victim   = 0
	)

	// The whole soak runs with the flight recorder on: at the end the
	// deterministic kill→failover below must survive as one retained trace
	// holding both sides of the invocation.
	obs.DefaultTracer.EnableRecorder(obs.RecorderConfig{})
	defer func() {
		obs.DefaultTracer.Reset()
		obs.DefaultTracer.DisableRecorder()
		obs.DefaultTracer.SetEnabled(false)
	}()

	fab := nexus.NewInproc()
	fi := nexus.NewFaultInjector(77, nexus.FaultPlan{})
	repoAddr, repoWait := startGroupRepo(t, fab, 2*hb)

	iors := make([]core.IOR, replicas)
	adapters := make([]*poa.POA, replicas)
	waits := make([]func(), replicas)
	beats := make([]*registry.Heartbeat, replicas)
	for i := 0; i < replicas; i++ {
		iors[i], adapters[i], waits[i] = startGroupReplica(t, fab, fi, i)
		hbOrb := newGroupClient(fab, fmt.Sprintf("gr-hb-%d", i))
		hbClient, err := registry.Open(hbOrb, repoAddr)
		if err != nil {
			t.Fatal(err)
		}
		// Heartbeats carry the full metrics digest — the soak doubles as the
		// federation path's integration exercise.
		beats[i] = registry.StartHeartbeat(hbClient, group, fmt.Sprintf("r%d", i),
			iors[i], hb, registry.AdapterDigest(adapters[i]))
	}

	// Heartbeat loops register their member asynchronously; the clients
	// below resolve the group on their first call and must not race the
	// first registrations.
	{
		regc, err := registry.Open(newGroupClient(fab, "gr-ready"), repoAddr)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if members, err := regc.ResolveGroup(group); err == nil && len(members) == replicas {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("group %s never reached %d registered members", group, replicas)
			}
		}
	}

	// Every client runs two phases of idempotent invocations with the kill
	// in between; each get must complete, failing over when its bound member
	// is the corpse.
	killDone := make(chan struct{})
	var phase1WG, clientWG sync.WaitGroup
	clientErrs := make(chan error, clients*(phase1+phase2))
	phase1WG.Add(clients)
	clientWG.Add(clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			defer clientWG.Done()
			orb := newGroupClient(fab, fmt.Sprintf("gr-cli-%d", c))
			regc, err := registry.Open(orb, repoAddr)
			if err != nil {
				phase1WG.Done()
				clientErrs <- err
				return
			}
			gb := orb.BindGroup(regc.GroupResolver(group), groupIface())
			gb.SetDeadline(0.5)
			gb.SetRetryPolicy(core.RetryPolicy{MaxAttempts: replicas, BaseBackoff: 2e-3, JitterSeed: uint64(100 + c)})
			for i := 0; i < phase1; i++ {
				if _, err := gb.Invoke("get", []any{int32(i)}); err != nil {
					clientErrs <- fmt.Errorf("client %d phase1 get %d: %w", c, i, err)
				}
			}
			phase1WG.Done()
			<-killDone
			for i := 0; i < phase2; i++ {
				if _, err := gb.Invoke("get", []any{int32(i)}); err != nil {
					clientErrs <- fmt.Errorf("client %d phase2 get %d: %w", c, i, err)
				}
			}
		}()
	}
	phase1WG.Wait()

	// The kill: stop the victim's heartbeat first (its reporter endpoint is
	// not fault-wrapped), then blackhole its serving address.
	beats[victim].Stop()
	fi.Kill(nexus.Addr(iors[victim].Addrs[0]))
	killedAt := time.Now()
	close(killDone)

	// Deterministic failover: a binding whose resolver pins the corpse first
	// must advance to the survivor and complete the idempotent invocation.
	var failoverTrace uint64
	{
		orb := newGroupClient(fab, "gr-pinned")
		gb := orb.BindGroup(func() ([]core.IOR, error) {
			return []core.IOR{iors[victim], iors[1]}, nil
		}, groupIface())
		gb.SetDeadline(0.3)
		gb.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 2, JitterSeed: 9})
		vals, err := gb.Invoke("get", []any{int32(1)})
		if err != nil {
			t.Fatalf("idempotent get through dead member did not fail over: %v", err)
		}
		if vals[0] != int32(1) {
			t.Fatalf("failover answered from rank %v, want survivor 1", vals[0])
		}
		if gb.Failovers() != 1 {
			t.Fatalf("Failovers = %d, want 1", gb.Failovers())
		}
		failoverTrace = gb.LastTrace()
		if failoverTrace == 0 {
			t.Fatal("group invocation under an enabled tracer minted no trace")
		}
	}

	// Non-idempotent against the corpse: the deadline's InvokeError must
	// surface — a put may have executed before the reply vanished, so the
	// group layer must not retry it elsewhere.
	{
		orb := newGroupClient(fab, "gr-nonidem")
		gb := orb.BindGroup(func() ([]core.IOR, error) {
			return []core.IOR{iors[victim], iors[1]}, nil
		}, groupIface())
		gb.SetDeadline(0.3)
		gb.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 2, JitterSeed: 10})
		_, err := gb.Invoke("put", []any{int32(2)})
		var ie *core.InvokeError
		if !errors.As(err, &ie) || !errors.Is(err, core.ErrDeadline) {
			t.Fatalf("non-idempotent put on dead member = %v, want deadline InvokeError", err)
		}
		if gb.Failovers() != 0 {
			t.Fatalf("non-idempotent put failed over %d times, want 0", gb.Failovers())
		}
	}

	// The registry must age the silent member out within its TTL of two
	// heartbeat periods (generous wall-clock slack for scheduling).
	{
		orb := newGroupClient(fab, "gr-monitor")
		regc, err := registry.Open(orb, repoAddr)
		if err != nil {
			t.Fatal(err)
		}
		deadline := killedAt.Add(time.Duration((2*hb)*float64(time.Second)) + time.Second)
		for {
			members, err := regc.ResolveGroup(group)
			if err != nil {
				t.Fatalf("resolve during aging: %v", err)
			}
			gone := true
			for _, m := range members {
				if m.Addrs[0] == iors[victim].Addrs[0] {
					gone = false
				}
			}
			if gone {
				if len(members) != replicas-1 {
					t.Fatalf("after expiry: %d members, want %d", len(members), replicas-1)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("dead member still resolvable %v after the kill (TTL %v)", time.Since(killedAt), 2*hb)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	clientWG.Wait()
	close(clientErrs)
	for err := range clientErrs {
		t.Error(err)
	}

	// The flight recorder must have kept the killed-replica failover as ONE
	// trace — marked as a failover and holding both the client-side spans
	// (stub/orb) and the surviving server's dispatch, a single cross-address-
	// space timeline under the pinned TraceID.
	{
		obs.DefaultTracer.Flush()
		var got *obs.RetainedTrace
		for _, rt := range obs.DefaultTracer.Retained() {
			if rt.Trace == failoverTrace {
				rt := rt
				if got != nil {
					t.Fatal("failover trace retained twice")
				}
				got = &rt
			}
		}
		if got == nil {
			t.Fatalf("failover trace %d not retained (%d traces kept)",
				failoverTrace, obs.DefaultTracer.RetainedCount())
		}
		if got.Marks&obs.RetainFailover == 0 {
			t.Fatalf("failover trace marks = %v, want failover", got.Marks)
		}
		layers := map[string]bool{}
		for _, sp := range got.Spans {
			layers[sp.Layer] = true
		}
		if !layers[obs.LayerStub] && !layers[obs.LayerORB] {
			t.Fatalf("failover trace has no client-side span (layers %v)", layers)
		}
		if !layers[obs.LayerPOA] && !layers[obs.LayerPGIOP] {
			t.Fatalf("failover trace has no server-side span (layers %v)", layers)
		}
	}

	// Teardown: heartbeats, replicas (the corpse still receives unwrapped
	// teardown frames), repository — then the leak check over it all.
	for i, h := range beats {
		if i != victim {
			h.Stop()
		}
	}
	shutOrb := newGroupClient(fab, "gr-shutdown")
	for i := 0; i < replicas; i++ {
		if b, err := shutOrb.Bind(iors[i], groupIface()); err == nil {
			b.Shutdown("chaos done")
		}
	}
	for _, wait := range waits {
		wait()
	}
	if p, err := regidl.BindRepository(shutOrb, registry.BootstrapIOR(repoAddr)); err == nil {
		p.Binding().Shutdown("chaos done")
	}
	repoWait()
	leaktest.Check(t, baseline)
}
