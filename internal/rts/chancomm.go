package rts

import (
	"sync"

	"pardis/internal/nexus"
)

// ChanGroup is the in-process RTS backend: the computing threads of one
// parallel program are goroutines, each with an endpoint on a private
// nexus.Inproc fabric. It plays the role MPI played in the paper's testbed.
// Messaging is the endpoint thread JoinTCP uses too; what the shared address
// space adds is Run and the Window store.
type ChanGroup struct {
	threads []chanThread
	wins    *winStore
}

// NewChanGroup creates the communication state for a parallel program of n
// computing threads running on the named host.
func NewChanGroup(host string, n int) *ChanGroup {
	fab := nexus.NewInproc()
	table := make([]nexus.Addr, n)
	eps := make([]nexus.Endpoint, n)
	for r := range eps {
		eps[r] = fab.NewEndpoint("rts")
		table[r] = eps[r].Addr()
	}
	g := &ChanGroup{threads: make([]chanThread, n), wins: newWinStore()}
	for r := range g.threads {
		g.threads[r] = chanThread{epThread: newEPThread(host, r, n, eps[r], table), wins: g.wins}
	}
	return g
}

// Thread returns the Thread context for the given rank — the same one on
// every call, since the rank's mailbox lives in it.
func (g *ChanGroup) Thread(rank int) Thread {
	if rank < 0 || rank >= len(g.threads) {
		panic("rts: rank out of range")
	}
	return &g.threads[rank]
}

// Run spawns body once per rank on its own goroutine and waits for all of
// them to finish — the shape of an SPMD program launch.
func (g *ChanGroup) Run(body func(t Thread)) {
	var wg sync.WaitGroup
	for r := range g.threads {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(g.Thread(rank))
		}(r)
	}
	wg.Wait()
}

// chanThread is an endpoint thread that also reaches the group's Window
// store, free on an in-process backend.
type chanThread struct {
	epThread
	wins *winStore
}

// WinAlloc collectively allocates a window id.
func (t *chanThread) WinAlloc() uint64 { return t.wins.allocID(t) }

// WinPut publishes this thread's storage for a window.
func (t *chanThread) WinPut(id uint64, rank int, data any) { t.wins.put(id, rank, data) }

// WinGet reads another thread's published storage.
func (t *chanThread) WinGet(id uint64, rank int, bytes int) any { return t.wins.get(id, rank) }
