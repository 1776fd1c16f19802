package bench

import (
	"pardis/internal/apps"
	"pardis/internal/apps/dnadbidl"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/vtime"
)

// Fig4Point is one server size of Figure 4: client-perceived execution
// time (seconds) of the same search-plus-queries run under the two
// placements of the five single list-server objects, and their difference.
type Fig4Point struct {
	Procs       int
	Centralized float64
	Distributed float64
	Difference  float64
}

// Fig4Procs is the paper's processor sweep.
var Fig4Procs = []int{1, 2, 3, 4, 5, 6, 7, 8}

// dnaSearchServant implements dnadb.idl's dna_db by its cost model: it
// charges the search in rounds, calling ProcessRequests between rounds so
// the co-resident list servers can serve queries mid-search — the paper's
// §4.2 server.
type dnaSearchServant struct {
	rounds int
}

func (s dnaSearchServant) Search(ctx *poa.Context, _ string) (uint32, error) {
	th := ctx.Thread
	share := apps.PerThread(apps.DNASearchWork, th.Size())
	for r := 0; r < s.rounds; r++ {
		th.Compute(share / float64(s.rounds))
		ctx.POA.ProcessRequests()
	}
	return dnadbidl.StatusFOUND, nil
}

// listServant implements dnadb.idl's list_server: it charges its
// category's per-query cost and returns a list.
type listServant struct {
	kind apps.DerivativeKind
}

func (l listServant) Match(ctx *poa.Context, _ string) ([]string, error) {
	ctx.Thread.Compute(apps.ListServerWeights[l.kind] / apps.ListQueriesPerServer)
	return []string{"seq"}, nil
}

// runFig4 runs the Figure 4 scenario on p server threads with the given
// list-object placement (owner of category k) and returns the client's
// execution time in seconds.
func runFig4(p int, owner func(k apps.DerivativeKind) int) float64 {
	w := newWorld()
	w.connect("onyx", "powerchallenge", "atm")

	type refs struct {
		db    core.IOR
		lists [apps.NumDerivatives]core.IOR
	}
	iorCh := vtime.NewChan(w.sim, "fig4-iors")
	const tagIOR = rts.Tag(0x4000)

	w.spawn("dna", "powerchallenge", p, endpoint{}, func(th *rts.SimThread, adapter *poa.POA, _ *core.ORB) {
		dbIOR := must(dnadbidl.RegisterDnaDbSPMD(adapter, "dna-db", dnaSearchServant{rounds: 10}))
		// Instantiate the single list objects this thread owns and ship
		// their IORs to thread 0.
		for k := apps.Exact; k < apps.NumDerivatives; k++ {
			if owner(k) != th.Rank() {
				continue
			}
			ior := must(dnadbidl.RegisterListServerSingle(adapter, "list-"+k.Name(), listServant{kind: k}))
			th.Send(0, tagIOR+rts.Tag(k), []byte(ior.String()))
		}
		if th.Rank() == 0 {
			out := refs{db: dbIOR}
			for k := apps.Exact; k < apps.NumDerivatives; k++ {
				m := th.Recv(rts.AnySource, tagIOR+rts.Tag(k))
				out.lists[k] = must(core.ParseIOR(string(m.Data)))
			}
			th.Proc().Send(iorCh, out, 0)
		}
		adapter.ImplIsReady()
	})

	var elapsed vtime.Time
	w.spawn("client", "onyx", 1, endpoint{}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		r := th.Proc().Recv(iorCh).(refs)
		db := must(dnadbidl.SPMDBindDnaDb(orb, r.db))
		var lists [apps.NumDerivatives]*dnadbidl.ListServer
		for k := apps.Exact; k < apps.NumDerivatives; k++ {
			lists[k] = must(dnadbidl.BindListServer(orb, r.lists[k]))
		}

		start := th.Proc().Now()
		// stat = dna_database->search_nb(...)
		stat := must(db.SearchNB("ACGT"))
		// Issue the full query volume non-blocking while the search runs.
		var pending []future.Future[[]string]
		for q := 0; q < apps.ListQueriesPerServer; q++ {
			for k := apps.Exact; k < apps.NumDerivatives; k++ {
				pending = append(pending, must(lists[k].MatchNB("DDD")))
			}
		}
		// Wait for everything: all query replies and the search status.
		for _, f := range pending {
			f.MustGet()
		}
		stat.MustGet()
		elapsed = th.Proc().Now() - start
		check(db.Binding().Shutdown("done"))
	})
	w.run()
	return elapsed.Seconds()
}

// Figure4 regenerates the paper's Figure 4: the same run under the
// centralized placement (all five list objects on thread 0 — "what would
// happen if only one computing thread of the SPMD object were visible to
// the ORB") and the distributed placement (round-robin *by count, not by
// weight*, reproducing the paper's remark about the 2 -> 3 processor dip).
func Figure4(procs []int) []Fig4Point {
	var out []Fig4Point
	for _, p := range procs {
		pt := Fig4Point{Procs: p}
		pt.Centralized = runFig4(p, func(apps.DerivativeKind) int { return 0 })
		pt.Distributed = runFig4(p, func(k apps.DerivativeKind) int { return int(k) % p })
		pt.Difference = pt.Centralized - pt.Distributed
		out = append(out, pt)
	}
	return out
}
