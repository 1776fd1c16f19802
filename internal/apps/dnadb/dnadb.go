// Package dnadb is the paper's §4.2 application, written once against what
// pardis-idl generates from examples/dnadb/dnadb.idl (package dnadbidl): a
// DNA database held by an SPMD object is searched in rounds, and after each
// round the matches so far are collected into five lists (exact substring
// matches and the four edit-distance derivatives). Each list is a single
// object on one computing thread of the same server, which serves queries
// mid-search through POA::ProcessRequests. The client starts the search
// non-blocking and queries the lists while it runs.
//
// Each component charges its cost model through Thread.Compute, a no-op on
// the wall clock, and runs its search and its rts traffic unless its thread
// is an *rts.SimThread. Deploy starts the server and the client through a
// launcher: Figure 4 (internal/bench) on virtual time, examples/dnadb on
// the wall clock in one process.
package dnadb

import (
	"bytes"
	"errors"
	"strings"

	"pardis/internal/apps"
	"pardis/internal/apps/dnadbidl"
	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// Query is what the client searches the database for.
const Query = "ACGT"

const (
	rounds    = 10              // partial-result collection points per search
	listQuery = "DDD"           // what the client asks a list; it answers with all it holds
	tagIOR    = rts.Tag(0x4000) // + category: a list's reference on its way to rank 0
)

// Params places the five list objects; the zero value is Figure 4's
// distributed placement, round-robin by count (not by weight) over the
// server's threads.
type Params struct {
	Centralized bool // all five on thread 0, as if the ORB saw one thread of the server
}

// owner is the thread of a size-thread server that holds category k's list.
func (p Params) owner(k apps.DerivativeKind, size int) int {
	if p.Centralized {
		return 0
	}
	return int(k) % size
}

// list is one category's single object; only its owning thread touches it.
type list struct {
	kind  apps.DerivativeKind
	items []string
}

// Match implements dnadbidl.ListServerServant: it charges one query's
// share of its category's work and returns what the list holds.
func (l *list) Match(ctx *poa.Context, _ string) ([]string, error) {
	ctx.Thread.Compute(apps.ListServerWeights[l.kind] / apps.ListQueriesPerServer)
	return l.items, nil
}

// database is one thread's part of the SPMD database: its shard and the
// lists placed on its thread.
type database struct {
	p     Params
	shard []string
	lists [apps.NumDerivatives]*list // nil where another thread holds the list
}

// Search implements dnadbidl.DnaDbServant, the paper's §4.2 server: it
// searches its shard in rounds, each charged its share of the search.
// After each round it collects every category's matches so far at the
// list's owner and serves the requests waiting, so queries see the lists
// grow. The reply is rank 0's, which holds the exact list.
func (d *database) Search(ctx *poa.Context, s string) (uint32, error) {
	th := ctx.Thread
	share := apps.PerThread(apps.DNASearchWork, th.Size())
	chunk := (len(d.shard) + rounds - 1) / rounds
	var found [apps.NumDerivatives][]string
	for r := 0; r < rounds; r++ {
		th.Compute(share / rounds)
		if !rts.Virtual(th) {
			res := apps.SearchAll(d.shard[min(r*chunk, len(d.shard)):min((r+1)*chunk, len(d.shard))], s)
			for k := range res {
				found[k] = append(found[k], res[k]...)
				d.collect(th, apps.DerivativeKind(k), found[k])
			}
		}
		ctx.POA.ProcessRequests()
	}
	if l := d.lists[apps.Exact]; l == nil || len(l.items) == 0 {
		return dnadbidl.StatusNOTFOUND, nil
	}
	return dnadbidl.StatusFOUND, nil
}

// collect gathers every thread's matches of category k at the list's
// owner, in rank order: over contiguous shards, the database's order.
func (d *database) collect(th rts.Thread, k apps.DerivativeKind, mine []string) {
	parts := rts.Gather(th, d.p.owner(k, th.Size()), []byte(strings.Join(mine, " ")))
	if l := d.lists[k]; l != nil {
		l.items = strings.Fields(string(bytes.Join(parts, []byte(" "))))
	}
}

// server is the body of the database server. Each thread holds a
// contiguous shard of db (none on virtual time), registers the SPMD
// database and the lists p places on it, and ships the lists' references
// to rank 0 over rts, which publishes the database's and then the lists',
// in category order. Then all serve until the client shuts the server
// down.
func server(p Params, db []string) apps.Body {
	return func(th rts.Thread, adapter *poa.POA, _ *core.ORB, publish func(...core.IOR)) error {
		per := (len(db) + th.Size() - 1) / th.Size()
		d := &database{p: p, shard: db[min(th.Rank()*per, len(db)):min((th.Rank()+1)*per, len(db))]}
		ref, err := dnadbidl.RegisterDnaDbSPMD(adapter, "dna-db", d)
		if err != nil {
			return err
		}
		// SPMD and single objects share one parallel server (§3.1).
		for k := apps.Exact; k < apps.NumDerivatives; k++ {
			if p.owner(k, th.Size()) == th.Rank() {
				d.lists[k] = &list{kind: k}
				ior, err := dnadbidl.RegisterListServerSingle(adapter, "list-"+k.Name(), d.lists[k])
				if err != nil {
					return err
				}
				th.Send(0, tagIOR+rts.Tag(k), []byte(ior.String()))
			}
		}
		if th.Rank() == 0 {
			refs := []core.IOR{ref}
			for k := apps.Exact; k < apps.NumDerivatives; k++ {
				ior, err := core.ParseIOR(string(th.Recv(rts.AnySource, tagIOR+rts.Tag(k)).Data))
				if err != nil {
					return err
				}
				refs = append(refs, ior)
			}
			publish(refs...)
		}
		adapter.ImplIsReady()
		return nil
	}
}

// client runs the one-thread client of the server behind ref, Figure
// 4's: it starts the search non-blocking, issues the fixed query volume
// (ListQueriesPerServer to each list) non-blocking while the search runs,
// then reads every reply. It shuts the server down at the end, also after
// an error. span measures the search and the queries. On the wall clock it
// then asks each list once more and returns the search's status and what
// the lists hold.
func client(th rts.Thread, orb *core.ORB, ref apps.Ref, span *apps.Span) (status uint32, final [apps.NumDerivatives][]string, err error) {
	refs, err := ref(th)
	if err != nil {
		return status, final, err
	}
	db, err := dnadbidl.SPMDBindDnaDb(orb, refs[0])
	if err != nil {
		return status, final, err
	}
	defer func() { err = errors.Join(err, db.Binding().Shutdown("done")) }()
	var lists [apps.NumDerivatives]*dnadbidl.ListServer
	for k := range lists {
		if lists[k], err = dnadbidl.BindListServer(orb, refs[1+k]); err != nil {
			return status, final, err
		}
	}

	span.Start(th)
	// stat = dna_database->search_nb(...)
	stat, err := db.SearchNB(Query)
	if err != nil {
		return status, final, err
	}
	var pending []future.Future[[]string]
	for q := 0; q < apps.ListQueriesPerServer; q++ {
		for _, l := range lists {
			f, err := l.MatchNB(listQuery)
			if err != nil {
				return status, final, err
			}
			pending = append(pending, f)
		}
	}
	for _, f := range pending {
		if _, err := f.Get(); err != nil {
			return status, final, err
		}
	}
	if status, err = stat.Get(); err != nil {
		return status, final, err
	}
	span.Stop(th)
	if !rts.Virtual(th) {
		for k, l := range lists {
			if final[k], err = l.Match(listQuery); err != nil {
				return status, final, err
			}
		}
	}
	return status, final, nil
}

// Topology places the database server and its one-thread client.
type Topology struct {
	Server apps.Program
	Client string
}

// Deploy runs the application through l on the database db (nil on
// virtual time): the server, with the lists p places, and its client. It
// returns the search's status and the lists' final contents once every
// program has returned.
func Deploy(l apps.Launcher, t Topology, p Params, db []string, span *apps.Span) (status uint32, lists [apps.NumDerivatives][]string, err error) {
	dna := l.Start("dna", t.Server, server(p, db))
	l.Start("client", apps.Program{Host: t.Client, Threads: 1}, func(th rts.Thread, _ *poa.POA, orb *core.ORB, _ func(...core.IOR)) (err error) {
		status, lists, err = client(th, orb, dna, span)
		return err
	})
	err = l.Wait()
	return status, lists, err
}
