package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"pardis/internal/apps"
	"pardis/internal/bench/benchidl"
	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
)

// The serve experiment measures the replicated-group serving path end to
// end on the simulated testbed: a 4-replica object group registered with a
// repository on indy (2 replicas on onyx, 2 on the twice-as-fast sp2),
// heartbeat load reports driving the registry's least-loaded pick policy,
// and closed-loop clients on powerchallenge invoking through group
// bindings. Four cells exercise the two failure modes the group machinery
// exists for: a replica killed mid-run (client-invisible except for one
// deadline-paced failover per affected binding) and saturation with and
// without POA admission control (shed-with-hint keeps the completed-request
// tail bounded; the no-admission baseline queues and lets latency grow).
// Virtual clock throughout, so every number is a deterministic function of
// the model and the seeds.

// ServePoint is one cell of the serve experiment.
type ServePoint struct {
	// Scenario is healthy, killed, overload-shed or overload-noshed.
	Scenario string `json:"scenario"`
	Clients  int    `json:"clients"`
	Replicas int    `json:"replicas"`
	// Invocations counts group invocations attempted (all idempotent);
	// Completed/Failed partition them by outcome after group failover.
	Invocations    int     `json:"invocations"`
	Completed      int     `json:"completed"`
	Failed         int     `json:"failed"`
	CompletionRate float64 `json:"completion_rate"`
	// P50/P95/P99 are client-perceived group-invocation latencies of the
	// completed requests, seconds, including failover and backoff time.
	P50 float64 `json:"p50_s"`
	P95 float64 `json:"p95_s"`
	P99 float64 `json:"p99_s"`
	// Failovers sums member switches across all client bindings; Sheds sums
	// admission refusals across all replicas.
	Failovers int    `json:"failovers"`
	Sheds     uint64 `json:"sheds"`
	// DropSeconds is how long after the kill the registry stopped resolving
	// the dead member (killed cell only; bounded by the member TTL of two
	// heartbeat periods plus the poll quantum).
	DropSeconds float64 `json:"drop_seconds,omitempty"`
	// Virtual is the cell's total virtual duration, seconds.
	Virtual float64 `json:"virtual_s"`
}

// serveConfig parameterizes one cell.
type serveConfig struct {
	scenario   string
	clients    int
	perClient  int     // invocations per client
	workSec    float64 // servant compute per invocation (reference seconds)
	thinkSec   float64 // mean think time between invocations (uniform ±50%)
	deadline   float64 // per-member attempt deadline
	attempts   int     // group attempt budget (members tried per invocation)
	hbPeriod   float64 // heartbeat period; member TTL is twice this
	admitLimit int     // POA admission watermark (0 = no admission control)
	hintSec    float64 // shed retry hint
	killT      float64 // >0: kill replica 0 at this virtual time
	seed       int64
}

func serveConfigs(quick bool) []serveConfig {
	base := serveConfig{
		clients: 8, perClient: 40, workSec: 5e-3, thinkSec: 20e-3,
		deadline: 0.25, attempts: 4, hbPeriod: 50e-3,
	}
	overload := serveConfig{
		clients: 24, perClient: 25, workSec: 20e-3, thinkSec: 1e-3,
		deadline: 0.25, attempts: 4, hbPeriod: 50e-3, hintSec: 5e-3,
	}
	killT := 0.45
	if quick {
		base.clients, base.perClient = 4, 12
		overload.perClient = 8
		killT = 0.18
	}
	healthy, killed := base, base
	healthy.scenario, healthy.seed = "healthy", 11
	killed.scenario, killed.seed, killed.killT = "killed", 12, killT
	shed, noshed := overload, overload
	shed.scenario, shed.seed, shed.admitLimit = "overload-shed", 13, 2
	noshed.scenario, noshed.seed = "overload-noshed", 13
	return []serveConfig{healthy, killed, shed, noshed}
}

// FigureServe runs every cell of the serve experiment.
func FigureServe(quick bool) []ServePoint {
	cfgs := serveConfigs(quick)
	out := make([]ServePoint, 0, len(cfgs))
	for _, c := range cfgs {
		out = append(out, runServe(c))
	}
	return out
}

const serveGroupName = "serve-group"

// serveServant implements bench.idl's serve_replica: it charges a fixed
// compute cost per invocation.
type serveServant struct{ work float64 }

func (s serveServant) Work(ctx *poa.Context, _ int32) (int32, error) {
	ctx.Thread.Compute(s.work)
	return 1, nil
}

func runServe(cfg serveConfig) ServePoint {
	const nReplicas = 4
	replicaHosts := [nReplicas]string{"onyx", "onyx", "sp2", "sp2"}

	sim := apps.NewSim()
	sim.Connect("powerchallenge", "onyx", "atm")
	sim.Connect("powerchallenge", "sp2", "atm")
	sim.Connect("powerchallenge", "indy", "ethernet")
	sim.Connect("onyx", "indy", "ethernet")
	sim.Connect("sp2", "indy", "ethernet")

	fi := nexus.NewFaultInjector(uint64(cfg.seed), nexus.FaultPlan{})

	// Shared run state. The vtime scheduler runs procs cooperatively, but
	// atomics and the mutex keep the harness clean under -race; everything
	// read after sim.Wait() is ordered by the simulation's shutdown.
	var hbStop [nReplicas]atomic.Bool
	var doneClients atomic.Int32
	var mu sync.Mutex
	var allLat []float64
	var completed, failed, failovers int
	var dropSeconds float64

	// Registry on indy, aging members on the virtual clock.
	reg := sim.Spawn("serve-registry", apps.Program{Host: "indy", Threads: 1}, apps.Endpoint{Bare: true}, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
		repo := registry.NewRepository()
		repo.SetClock(adapter.Thread())
		repo.SetMemberTTL(2 * cfg.hbPeriod)
		repo.SetPickerSeed(cfg.seed)
		return regidl.RegisterRepositorySingle(adapter, registry.RepositoryKey, repo)
	}))

	// Replicas and their heartbeat reporters. Only the replica serving
	// endpoints are fault-wrapped: a kill silences the replica as its
	// clients experience it, while the harness's own teardown frames still
	// reach the victim. A replica's adapter serves its reporter's load
	// reads and the post-run shed tallies.
	var replicas [nReplicas]apps.Ref
	var adapters [nReplicas]*poa.POA
	for i := 0; i < nReplicas; i++ {
		name := fmt.Sprintf("serve-replica-%d", i)
		replicas[i] = sim.Spawn(name, apps.Program{Host: replicaHosts[i], Threads: 1}, apps.Endpoint{Fault: fi, Bare: true}, apps.Serve(func(adapter *poa.POA) (core.IOR, error) {
			if cfg.admitLimit > 0 {
				adapter.SetAdmission(cfg.admitLimit, cfg.hintSec)
			}
			adapters[i] = adapter
			return benchidl.RegisterServeReplicaSingle(adapter, name, serveServant{work: cfg.workSec})
		}))

		sim.Spawn(name+"-hb", apps.Program{Host: replicaHosts[i], Threads: 1}, apps.Endpoint{Bare: true}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
			ior := must(replicas[i](th))[0]
			regc := must(registry.Open(orb, must(reg(th))[0].Addrs[0]))
			regc.SetDeadline(cfg.hbPeriod)
			registered := regc.RegisterMember(serveGroupName, name, ior) == nil
			for {
				th.Sleep(cfg.hbPeriod)
				if hbStop[i].Load() {
					return nil
				}
				if !registered {
					if regc.RegisterMember(serveGroupName, name, ior) != nil {
						continue
					}
					registered = true
				}
				p95, depth := adapters[i].LoadReport()
				if known, err := regc.ReportLoad(serveGroupName, name, p95, depth, ""); err == nil && !known {
					registered = false
				}
			}
		})
	}

	// Closed-loop clients on powerchallenge, each with its own group binding
	// resolved through the registry.
	for ci := 0; ci < cfg.clients; ci++ {
		name := fmt.Sprintf("serve-client-%d", ci)
		sim.Spawn(name, apps.Program{Host: "powerchallenge", Threads: 1}, apps.Endpoint{Bare: true}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
			regc := must(registry.Open(orb, must(reg(th))[0].Addrs[0]))
			regc.SetDeadline(cfg.deadline)
			gb := orb.BindGroup(regc.GroupResolver(serveGroupName), benchidl.ServeReplicaIDL())
			gb.SetDeadline(cfg.deadline)
			gb.SetRetryPolicy(core.RetryPolicy{
				MaxAttempts: cfg.attempts,
				BaseBackoff: 5e-3,
				JitterSeed:  uint64(cfg.seed) + uint64(ci),
			})
			rng := rand.New(rand.NewSource(cfg.seed + int64(ci)*7919))
			proc := th.(*rts.SimThread).Proc()

			// Let the first heartbeats register the group before resolving.
			th.Sleep(50e-3)
			var lat []float64
			ok, bad := 0, 0
			for n := 0; n < cfg.perClient; n++ {
				th.Sleep(cfg.thinkSec * (0.5 + rng.Float64()))
				t0 := proc.Now()
				if _, err := gb.Invoke("work", []any{int32(n)}); err != nil {
					bad++
					continue
				}
				ok++
				lat = append(lat, (proc.Now() - t0).Seconds())
			}
			mu.Lock()
			allLat = append(allLat, lat...)
			completed += ok
			failed += bad
			failovers += gb.Failovers()
			mu.Unlock()
			doneClients.Add(1)
			return nil
		})
	}

	// Controller: chaos (kill one replica mid-run and time the registry
	// dropping it), then orderly teardown once every client is done.
	sim.Spawn("serve-controller", apps.Program{Host: "powerchallenge", Threads: 1}, apps.Endpoint{Bare: true}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) error {
		regRef := must(reg(th))[0]
		var replicaIORs [nReplicas]core.IOR
		for i := range replicaIORs {
			replicaIORs[i] = must(replicas[i](th))[0]
		}
		regc := must(registry.Open(orb, regRef.Addrs[0]))
		regc.SetDeadline(cfg.deadline)

		if cfg.killT > 0 {
			const victim = 0
			for th.Elapsed() < cfg.killT {
				th.Sleep(5e-3)
			}
			hbStop[victim].Store(true)
			fi.Kill(nexus.Addr(replicaIORs[victim].Addrs[0]))
			killAt := th.Elapsed()
			for {
				th.Sleep(cfg.hbPeriod / 5)
				iors, err := regc.ResolveGroup(serveGroupName)
				if err != nil {
					continue
				}
				present := false
				for _, m := range iors {
					if m.Addrs[0] == replicaIORs[victim].Addrs[0] {
						present = true
					}
				}
				if !present {
					dropSeconds = th.Elapsed() - killAt
					break
				}
			}
		}

		for doneClients.Load() < int32(cfg.clients) {
			th.Sleep(10e-3)
		}
		for i := range hbStop {
			hbStop[i].Store(true)
		}
		// Let the heartbeat loops wake, observe the flag and exit before
		// their repository goes away.
		th.Sleep(2 * cfg.hbPeriod)
		for i := 0; i < nReplicas; i++ {
			if r, err := benchidl.BindServeReplica(orb, replicaIORs[i]); err == nil {
				_ = r.Binding().Shutdown("serve done")
			}
		}
		if p, err := regidl.BindRepository(orb, regRef); err == nil {
			_ = p.Binding().Shutdown("serve done")
		}
		return nil
	})

	check(sim.Wait())
	final := sim.End()

	sort.Float64s(allLat)
	pt := ServePoint{
		Scenario:    cfg.scenario,
		Clients:     cfg.clients,
		Replicas:    nReplicas,
		Invocations: completed + failed,
		Completed:   completed,
		Failed:      failed,
		Failovers:   failovers,
		DropSeconds: dropSeconds,
		Virtual:     final.Seconds(),
	}
	if pt.Invocations > 0 {
		pt.CompletionRate = float64(completed) / float64(pt.Invocations)
	}
	pt.P50 = percentile(allLat, 0.50)
	pt.P95 = percentile(allLat, 0.95)
	pt.P99 = percentile(allLat, 0.99)
	for i := 0; i < nReplicas; i++ {
		if adapters[i] != nil {
			pt.Sheds += adapters[i].ShedCount()
		}
	}
	return pt
}

// percentile reads quantile q from sorted samples: the element at index
// ⌊q·(n−1)⌋, no interpolation; 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
