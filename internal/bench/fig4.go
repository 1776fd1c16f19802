package bench

import (
	"fmt"

	"pardis/internal/apps"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
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

func dnaIfaces() (db, list *core.InterfaceDef) {
	db = &core.InterfaceDef{
		Name: "dna_db",
		Ops: []core.Operation{{
			Name:   "search",
			Params: []core.Param{core.NewParam("s", core.In, typecode.TCString)},
			Result: typecode.EnumOf("status", "FOUND", "NOT_FOUND"),
		}},
	}
	list = &core.InterfaceDef{
		Name: "list_server",
		Ops: []core.Operation{{
			Name: "match",
			Params: []core.Param{
				core.NewParam("s", core.In, typecode.TCString),
				core.NewParam("l", core.Out, typecode.SequenceOf(typecode.TCString, 0)),
			},
		}},
	}
	return db, list
}

// dnaSearchServant charges the search cost in rounds, calling
// ProcessRequests between rounds so the co-resident list servers can serve
// queries mid-search — the paper's §4.2 server.
type dnaSearchServant struct {
	rounds int
}

func (s dnaSearchServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "search" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	th := ctx.Thread
	share := apps.PerThread(apps.DNASearchWork, th.Size())
	for r := 0; r < s.rounds; r++ {
		th.Compute(share / float64(s.rounds))
		ctx.POA.ProcessRequests()
	}
	return uint32(0), nil, nil
}

// listServant charges its category's per-query cost and returns a list.
type listServant struct {
	kind apps.DerivativeKind
}

func (l listServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "match" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	ctx.Thread.Compute(apps.ListServerWeights[l.kind] / apps.ListQueriesPerServer)
	return nil, []any{[]string{"seq"}}, nil
}

// runFig4 runs the Figure 4 scenario on p server threads with the given
// list-object placement (owner of category k) and returns the client's
// execution time in seconds.
func runFig4(p int, owner func(k apps.DerivativeKind) int) float64 {
	w := newWorld()
	w.connect("onyx", "powerchallenge", "atm")

	dbIface, listIface := dnaIfaces()
	type refs struct {
		db    core.IOR
		lists [apps.NumDerivatives]core.IOR
	}
	iorCh := vtime.NewChan(w.sim, "fig4-iors")
	const tagIOR = rts.Tag(0x4000)

	w.spawn("dna", "powerchallenge", p, endpoint{}, func(th *rts.SimThread, adapter *poa.POA, _ *core.ORB) {
		dbIOR, err := adapter.RegisterSPMD("dna-db", dbIface, dnaSearchServant{rounds: 10})
		if err != nil {
			panic(err)
		}
		// Instantiate the single list objects this thread owns and ship
		// their IORs to thread 0.
		for k := apps.Exact; k < apps.NumDerivatives; k++ {
			if owner(k) != th.Rank() {
				continue
			}
			ior, err := adapter.RegisterSingle("list-"+k.Name(), listIface, listServant{kind: k})
			if err != nil {
				panic(err)
			}
			th.Send(0, tagIOR+rts.Tag(k), []byte(ior.String()))
		}
		if th.Rank() == 0 {
			out := refs{db: dbIOR}
			for k := apps.Exact; k < apps.NumDerivatives; k++ {
				m := th.Recv(rts.AnySource, tagIOR+rts.Tag(k))
				ior, err := core.ParseIOR(string(m.Data))
				if err != nil {
					panic(err)
				}
				out.lists[k] = ior
			}
			th.Proc().Send(iorCh, out, 0)
		}
		adapter.ImplIsReady()
	})

	var elapsed vtime.Time
	w.spawn("client", "onyx", 1, endpoint{}, func(th *rts.SimThread, _ *poa.POA, orb *core.ORB) {
		r := th.Proc().Recv(iorCh).(refs)
		dbBind := mustBind(orb, r.db, dbIface)
		var lists [apps.NumDerivatives]*core.Binding
		for k := apps.Exact; k < apps.NumDerivatives; k++ {
			var err error
			lists[k], err = orb.Bind(r.lists[k], listIface)
			if err != nil {
				panic(err)
			}
		}

		start := th.Proc().Now()
		// stat = dna_database->search_nb(...)
		stat, err := dbBind.InvokeNB("search", []any{"ACGT"})
		if err != nil {
			panic(err)
		}
		// Issue the full query volume non-blocking while the search runs.
		var pending []*future.Cell
		for q := 0; q < apps.ListQueriesPerServer; q++ {
			for k := apps.Exact; k < apps.NumDerivatives; k++ {
				c, err := lists[k].InvokeNB("match", []any{"DDD", nil})
				if err != nil {
					panic(err)
				}
				pending = append(pending, c)
			}
		}
		// Wait for everything: all query replies and the search status.
		for _, c := range pending {
			if err := c.Wait(); err != nil {
				panic(err)
			}
		}
		if err := stat.Wait(); err != nil {
			panic(err)
		}
		elapsed = th.Proc().Now() - start
		if err := dbBind.Shutdown("done"); err != nil {
			panic(err)
		}
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
