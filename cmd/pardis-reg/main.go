// Command pardis-reg runs a PARDIS Object/Implementation Repository as a
// standalone daemon over TCP. Servers register their objects with it;
// clients resolve names through it. One daemon defines one naming domain —
// run several to split the namespace.
//
// Usage:
//
//	pardis-reg [-listen host:port] [-debug host:port] [-member-ttl s] [-sweep s]
//
// The printed bootstrap address is what servers and clients pass to
// registry.Open. -debug additionally serves the live introspection
// endpoint (/metrics Prometheus text, /debug/vars expvar JSON,
// /debug/trace Chrome trace events, /debug/groups replicated-group
// membership and load reports, /debug/cluster per-group rollups of the
// heartbeat metrics digests as JSON, /debug/federate the same rollups as a
// Prometheus federation page, plus /healthz and /debug/pprof — see
// DESIGN.md §11, §15, §16); without it the daemon exposes nothing.
//
// Replicated object groups (registry.Client.RegisterMember/ReportLoad) age
// out when their heartbeats stop: -member-ttl is the expiry horizon (set it
// to 2× the replicas' heartbeat period) and -sweep is how often the daemon
// prunes expired members even while nobody resolves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/obs/obshttp"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/registry/regidl"
	"pardis/internal/rts"
	"pardis/internal/vtime"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7934", "TCP listen address")
	debugAddr := flag.String("debug", "", "serve /metrics, /debug/vars, /debug/trace and /debug/groups on this address")
	memberTTL := flag.Float64("member-ttl", registry.DefaultMemberTTL, "group member expiry horizon, seconds (2x the replica heartbeat period)")
	sweep := flag.Float64("sweep", 0, "expired-member sweep period, seconds (0 = half the member TTL in use)")
	flag.Parse()

	repo := registry.NewRepository()
	repo.SetMemberTTL(*memberTTL)

	if *debugAddr != "" {
		bound, stop, err := obshttp.Serve(*debugAddr, obs.Default, obs.DefaultTracer, nil, debugPages(repo))
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("pardis-reg: debug endpoint at http://%s\n", bound)
	}

	// Background sweep: dead members must disappear on schedule, not only
	// when the next resolve happens to age the group.
	period, err := sweepPeriod(*sweep, repo.MemberTTL())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardis-reg:", err)
		flag.Usage()
		os.Exit(2)
	}
	sweepStop := make(chan struct{})
	defer close(sweepStop)
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-sweepStop:
				return
			case <-tick.C:
				repo.SweepExpired()
			}
		}
	}()

	ep, err := nexus.NewTCPEndpoint(*listen)
	if err != nil {
		log.Fatal(err)
	}
	th := rts.NewChanGroup("registry-host", 1).Thread(0)
	router := core.NewRouter(ep)
	adapter := poa.New(th, router, nil)
	if _, err := regidl.RegisterRepositorySingle(adapter, registry.RepositoryKey, repo); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pardis-reg: repository serving at %s\n", router.Addr())
	adapter.ImplIsReady()
	fmt.Println("pardis-reg: deactivated")
}

// debugPages are the repository's own pages on the -debug endpoint: group
// membership and load reports, the per-group rollups of the heartbeat
// metrics digests as JSON, and the same rollups as a Prometheus federation
// page.
func debugPages(repo *registry.Repository) map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/debug/groups": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, g := range repo.GroupsSnapshot() {
				fmt.Fprintln(w, g)
			}
		},
		"/debug/cluster": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(repo.ClusterSnapshot())
		},
		"/debug/federate": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			repo.WriteFederation(w)
		},
	}
}

// sweepPeriod is the expired-member sweep's period: sweep seconds, or half
// the member TTL the repository uses when sweep is not positive. A period
// that rounds to under 1 ns is an error (a ticker cannot run at it).
func sweepPeriod(sweep, ttl float64) (time.Duration, error) {
	if sweep <= 0 {
		sweep = ttl / 2
	}
	d := vtime.Wall(sweep)
	if d <= 0 {
		return 0, fmt.Errorf("sweep period %gs is under 1ns", sweep)
	}
	return d, nil
}
