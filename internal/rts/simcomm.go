package rts

import (
	"math"

	"pardis/internal/nexus"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// SimGroup is the virtual-time RTS backend: computing threads are vtime
// processes pinned to nodes of a simnet host, and message costs follow the
// host's internal-interconnect model. The experiment harness uses it to
// regenerate the paper's figures deterministically.
type SimGroup struct {
	sim   *vtime.Sim
	host  *simnet.Host
	size  int
	boxes []*vtime.Chan
	wins  *winStore
}

// NewSimGroup creates the communication state for a parallel program of n
// computing threads on host. Thread clocks read the simulation's virtual
// time, so every simulated thread of it is on one clock.
func NewSimGroup(sim *vtime.Sim, host *simnet.Host, n int) *SimGroup {
	g := &SimGroup{sim: sim, host: host, size: n, wins: newWinStore()}
	for i := 0; i < n; i++ {
		g.boxes = append(g.boxes, vtime.NewChan(sim, "rts-box"))
	}
	return g
}

// Spawn launches body once per rank as vtime processes. Call before or
// during Sim.Run; the caller runs the simulation.
func (g *SimGroup) Spawn(name string, body func(t Thread)) []*vtime.Proc {
	procs := make([]*vtime.Proc, g.size)
	for r := 0; r < g.size; r++ {
		rank := r
		procs[r] = g.sim.Spawn(name, func(p *vtime.Proc) {
			body(g.SimThread(p, rank))
		})
	}
	return procs
}

// SimThread binds an existing vtime process to rank's communication state;
// useful when the caller manages process creation itself.
func (g *SimGroup) SimThread(p *vtime.Proc, rank int) *SimThread {
	p.Watch(g.boxes[rank])
	return &SimThread{g: g, p: p, rank: rank}
}

// Host returns the simnet host the group runs on.
func (g *SimGroup) Host() *simnet.Host { return g.host }

// SimThread implements Thread on virtual time.
type SimThread struct {
	g    *SimGroup
	p    *vtime.Proc
	rank int
}

var _ Thread = (*SimThread)(nil)

// Virtual reports whether th's clock is virtual: a simulated thread's, which
// charges what it runs to a cost model instead of taking the time.
func Virtual(th Thread) bool { _, sim := th.(*SimThread); return sim }

func (t *SimThread) Rank() int        { return t.rank }
func (t *SimThread) Size() int        { return t.g.size }
func (t *SimThread) HostName() string { return t.g.host.Name }

// Proc exposes the underlying vtime process (used by the simulated ORB
// transport, which must block on the same virtual clock).
func (t *SimThread) Proc() *vtime.Proc { return t.p }

func (t *SimThread) Compute(refSeconds float64) {
	t.g.host.Compute(t.p, refSeconds)
}

func (t *SimThread) Elapsed() float64 { return t.p.Now().Seconds() }
func (t *SimThread) ElapsedNS() int64 { return int64(t.p.Now()) }

func (t *SimThread) Sleep(seconds float64) { t.p.Advance(vtime.Seconds(seconds)) }

// WaitUntil implements Thread: vtime's Await over the rank's box and every
// sim endpoint of its process, on the virtual clock. The instant is rounded
// up, so a wait that runs to it leaves Elapsed at or past it.
func (t *SimThread) WaitUntil(at float64) {
	t.p.Await(max(vtime.Time(math.Ceil(at*1e9)), t.p.Now()+1))
}

// Watch implements Thread: a sim endpoint ends its owner's Await from its
// creation (nexus.SimFabric.NewEndpoint).
func (t *SimThread) Watch(nexus.Endpoint) bool { return true }

// Send implements Comm. The payload is copied, as every backend's is; the
// modeled cost depends only on its length.
func (t *SimThread) Send(dst int, tag Tag, data []byte) {
	CheckRank(t, dst)
	arrival := t.g.host.InternalSend(t.p, t.rank, len(data)+32) // 32 B header
	t.p.SendAt(t.g.boxes[dst], Message{Src: t.rank, Tag: tag, Data: append([]byte(nil), data...)}, arrival)
}

func simMatch(src int, tag Tag) func(any) bool {
	return func(v any) bool {
		m := v.(Message)
		return match(m, src, tag)
	}
}

func (t *SimThread) Recv(src int, tag Tag) Message {
	v := t.p.RecvMatch(t.g.boxes[t.rank], simMatch(src, tag))
	return v.(Message)
}

func (t *SimThread) Probe(src int, tag Tag) bool {
	return t.p.PeekMatch(t.g.boxes[t.rank], simMatch(src, tag))
}

// Barrier implements Comm (dissemination over Send/Recv, shared with the
// endpoint thread): ⌈log₂P⌉ rounds of modeled messages, so barrier
// latency on the virtual clock scales logarithmically with thread count.
func (t *SimThread) Barrier() { runBarrier(t) }

// Window support on the simulated backend: the shared store is free to
// reach, but each access charges the host's internal-interconnect cost, so
// location-transparent element access shows up in modeled time.

// WinAlloc collectively allocates a window id.
func (t *SimThread) WinAlloc() uint64 { return t.g.wins.allocID(t) }

// WinPut publishes this thread's storage for a window.
func (t *SimThread) WinPut(id uint64, rank int, data any) { t.g.wins.put(id, rank, data) }

// WinGet reads another thread's published storage, charging a round-trip on
// the host interconnect when the data is remote.
func (t *SimThread) WinGet(id uint64, rank int, bytes int) any {
	if rank != t.rank && bytes > 0 {
		cost := 2*t.g.host.InternalLatency + vtime.Time(bytes)*t.g.host.InternalByteTime
		t.p.Advance(cost)
	}
	return t.g.wins.get(id, rank)
}
