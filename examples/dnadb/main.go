// Dnadb reproduces the paper's §4.2 scenario: a DNA database held by an
// SPMD object is searched in parallel; periodically the partial results are
// collected into five lists (exact substring matches plus the four
// edit-distance derivatives), each owned by a *single* object distributed
// over the computing threads of the same parallel server. While the search
// runs, the server makes the list objects reachable by calling
// POA::ProcessRequests(), and the client polls the search future while
// issuing non-blocking match queries — the paper's listing, futures,
// resolved() poll and all.
//
// The stubs, skeletons and servant interfaces are package
// internal/apps/dnadbidl, which the PARDIS IDL compiler generates from
// dnadb.idl; the Figure 4 harness (internal/bench) uses the same package.
//
// Run with:
//
//	go run ./examples/dnadb
package main

import (
	"fmt"
	"log"
	"sync"

	"pardis/internal/apps"
	"pardis/internal/apps/dnadbidl"
	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

const (
	serverThreads = 4
	dbSequences   = 2000
	seqLength     = 60
	searchRounds  = 5 // partial-result collection points per search
	tagPartial    = rts.Tag(0x3000)
	tagIOR        = rts.Tag(0x3100)
)

// listState is the five result lists, each owned by one computing thread.
type listState struct {
	mu    sync.Mutex
	lists [apps.NumDerivatives][]string
}

func (ls *listState) set(kind apps.DerivativeKind, items []string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.lists[kind] = items
}

func (ls *listState) get(kind apps.DerivativeKind) []string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]string(nil), ls.lists[kind]...)
}

// owner maps a list category to its owning computing thread: round-robin by
// count — the paper's distributed placement.
func owner(kind apps.DerivativeKind) int { return int(kind) % serverThreads }

// dbImpl implements the generated dnadbidl.DnaDbServant interface on each
// thread.
type dbImpl struct {
	shard []string // this thread's portion of the database
	state *listState
}

func (d *dbImpl) Search(ctx *poa.Context, s string) (uint32, error) {
	th := ctx.Thread
	found := false
	chunk := (len(d.shard) + searchRounds - 1) / searchRounds
	var partial [apps.NumDerivatives][]string
	for r := 0; r < searchRounds; r++ {
		lo, hi := r*chunk, min((r+1)*chunk, len(d.shard))
		if lo < hi {
			res := apps.SearchAll(d.shard[lo:hi], s)
			for k := range res {
				partial[k] = append(partial[k], res[k]...)
			}
		}
		// Collect each category at its owner through the run-time system.
		for k := apps.Exact; k < apps.NumDerivatives; k++ {
			own := owner(k)
			if th.Rank() != own {
				th.Send(own, tagPartial+rts.Tag(k), encodeList(partial[k]))
				continue
			}
			merged := append([]string(nil), partial[k]...)
			for i := 0; i < th.Size()-1; i++ {
				m := th.Recv(rts.AnySource, tagPartial+rts.Tag(k))
				merged = append(merged, decodeList(m.Data)...)
			}
			d.state.set(k, merged)
			if k == apps.Exact && len(merged) > 0 {
				found = true
			}
		}
		// The paper's POA::process_requests(): serve list queries now.
		ctx.POA.ProcessRequests()
	}
	// The reply is assembled by thread 0, which owns the Exact list, so
	// its notion of "found" is the authoritative one.
	if found {
		return dnadbidl.StatusFOUND, nil
	}
	return dnadbidl.StatusNOTFOUND, nil
}

// listImpl implements the generated dnadbidl.ListServerServant interface
// for one category's single object.
type listImpl struct {
	kind  apps.DerivativeKind
	state *listState
}

func (l *listImpl) Match(_ *poa.Context, s string) ([]string, error) {
	// The stored lists were built for the active search query; a fuller
	// system would filter by s — the interaction shape is the paper's.
	_ = s
	return l.state.get(l.kind), nil
}

func encodeList(items []string) []byte {
	var out []byte
	for _, s := range items {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	return out
}

func decodeList(b []byte) []string {
	var out []string
	for len(b) > 0 {
		n := int(b[0])
		out = append(out, string(b[1:1+n]))
		b = b[1+n:]
	}
	return out
}

// serverIORs carries the database object's reference and one per list
// category.
type serverIORs struct {
	db    core.IOR
	lists [apps.NumDerivatives]core.IOR
}

func startServer(fab *nexus.Inproc, db []string) (serverIORs, *sync.WaitGroup) {
	iorCh := make(chan serverIORs, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		state := &listState{}
		rts.NewChanGroup("dna-host", serverThreads).Run(func(th rts.Thread) {
			router := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("dna-%d", th.Rank())))
			adapter := poa.New(th, router, nil)

			per := (len(db) + th.Size() - 1) / th.Size()
			lo, hi := th.Rank()*per, min((th.Rank()+1)*per, len(db))
			impl := &dbImpl{shard: db[lo:hi], state: state}

			dbIOR, err := dnadbidl.RegisterDnaDbSPMD(adapter, "dna-db-1", impl)
			if err != nil {
				log.Fatal(err)
			}
			// Each thread instantiates the single list objects it owns —
			// SPMD and single objects sharing one parallel server (§3.1) —
			// and ships their IORs to thread 0.
			for k := apps.Exact; k < apps.NumDerivatives; k++ {
				if owner(k) != th.Rank() {
					continue
				}
				ior, err := dnadbidl.RegisterListServerSingle(adapter, "list-"+k.Name(), &listImpl{kind: k, state: state})
				if err != nil {
					log.Fatal(err)
				}
				th.Send(0, tagIOR+rts.Tag(k), []byte(ior.String()))
			}
			if th.Rank() == 0 {
				out := serverIORs{db: dbIOR}
				for k := apps.Exact; k < apps.NumDerivatives; k++ {
					m := th.Recv(rts.AnySource, tagIOR+rts.Tag(k))
					ior, err := core.ParseIOR(string(m.Data))
					if err != nil {
						log.Fatal(err)
					}
					out.lists[k] = ior
				}
				iorCh <- out
			}
			th.Barrier()
			adapter.ImplIsReady()
		})
	}()
	return <-iorCh, &wg
}

func main() {
	fab := nexus.NewInproc()
	db := apps.GenerateDNA(dbSequences, seqLength, 1997)
	refs, wg := startServer(fab, db)

	// --- Client: the paper's §4.2 listing. ------------------------------
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, nil)
	dnaDatabase, err := dnadbidl.SPMDBindDnaDb(orb, refs.db)
	if err != nil {
		log.Fatal(err)
	}
	var lists [apps.NumDerivatives]*dnadbidl.ListServer
	for k := apps.Exact; k < apps.NumDerivatives; k++ {
		lists[k], err = dnadbidl.BindListServer(orb, refs.lists[k])
		if err != nil {
			log.Fatal(err)
		}
	}
	substringListSrv := lists[apps.Exact]
	transposeListSrv := lists[apps.Transposition]

	// stat = dna_database->search_nb("ABCD");
	query := "ACGT"
	stat, err := dnaDatabase.SearchNB(query)
	if err != nil {
		log.Fatal(err)
	}
	polls := 0
	// while (!stat.resolved()) { ... issue non-blocking match queries ... }
	for !stat.Resolved() {
		f1, err := substringListSrv.MatchNB("DDD")
		if err != nil {
			log.Fatal(err)
		}
		f2, err := transposeListSrv.MatchNB("AAA")
		if err != nil {
			log.Fatal(err)
		}
		l1, l2 := f1.MustGet(), f2.MustGet()
		polls++
		if polls <= 3 || polls%50 == 0 {
			fmt.Printf("  mid-search poll %d: substring list %d entries, transpose list %d entries\n",
				polls, len(l1), len(l2))
		}
	}
	status := stat.MustGet()
	if status == dnadbidl.StatusFOUND {
		fmt.Printf("search resolved after %d polls: FOUND\n", polls)
	} else {
		fmt.Printf("search resolved after %d polls: NOT_FOUND\n", polls)
	}

	// Final processing: one more query per list server.
	for k := apps.Exact; k < apps.NumDerivatives; k++ {
		l, err := lists[k].Match("DDD")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final %-12s list: %4d sequences\n", apps.DerivativeKind(k).Name(), len(l))
	}

	// Sanity: the search's final exact list matches a sequential search.
	want := apps.SearchDB(db, query, apps.Exact)
	got, _ := substringListSrv.Match("x")
	if len(got) != len(want) {
		log.Fatalf("exact list has %d entries, sequential search finds %d", len(got), len(want))
	}
	fmt.Println("exact list agrees with sequential oracle")

	dnaDatabase.Binding().Shutdown("done")
	wg.Wait()
}
