package nexus

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// The read role's explorer: stateless model checking in the manner of CHESS
// (Musuvathi et al., OSDI 2008), over step. A world is one transport with
// the connection it may read in place, and the actors that touch the role:
// the owner of its channel (Recv, or a Waiter's wait and Poll), the peer
// writing frames, the flusher's peek, a second dialer or channel, a closer,
// a frame at another watched endpoint, the acceptor naming the connection,
// and the reader goroutines the role starts. Each actor moves one atomic
// step at a time, each step one apply of step as the runtime makes it, and
// the search runs every interleaving, hashing the worlds it has seen.

// The invariants, by number in violation reports.
const (
	invOneReader  = 1 // at most one reader
	invNoLostWake = 2 // a waiter is not left waiting for what has come: a frame, or its channel's close
	invWriteFree  = 3 // a thread blocked in a write never owns the only reader
	invPermanent  = 4 // a hand-over is permanent
	invBuffered   = 5 // buffered bytes survive a hand-over: no frame is lost
	invInPlace    = 6 // nothing hands over unasked: alone, the connection stays in place
)

var invName = map[int]string{
	invOneReader:  "at most one reader",
	invNoLostWake: "a waiter is read to or signalled",
	invWriteFree:  "a blocked write owns no reader",
	invPermanent:  "a hand-over is permanent",
	invBuffered:   "buffered bytes survive",
	invInPlace:    "in place unless asked",
}

// Frame destinations.
const (
	toOwner  = 0
	toSecond = 1
)

// Owner program counters.
const (
	oLoop     uint8 = iota // Recv's loop, or the Waiter's caller's: Poll, then WaitUntil
	oBegin                 // Recv's or the wait's read: take the role
	oDeadline              // the owner sets its read deadline, undoing an interrupt
	oCheck                 // the checks made after the deadline is set
	oRead                  // the read, blocking until a frame, the cut, or the end
	oEnd                   // give the role back
	oPoll                  // Poll's read without waiting: take the role
	oPollRead              // ... read what has arrived
	oPollEnd               // ... give the role back
	oWait                  // WaitUntil
	oPark                  // parked on the channel's queue (Recv) or the Waiter's wake
	oWrite                 // a write about to wait (evWriteWait)
	oShare                 // ... sharing what it found in place
	oBlocked               // ... blocked until the peer reads
	oDone
	oAbsent // the second channel does not exist yet
)

type owner struct {
	pc       uint8
	got      uint8 // frames received
	want     uint8
	inbox    uint8
	condWait bool // parked on the queue, until a push, a close or a wake
	mine     bool // the read in progress got a frame of this owner's
	wrote    bool
	snap     bool // the waiting write found the transport in place
}

type world struct {
	s        roleState
	solo     bool // t.solo is the connection
	cut      bool // the connection's read deadline is in the past
	failed   bool
	kernel   [4]uint8 // frames arrived and unread, by destination
	kn       uint8
	buf      [4]uint8 // frames the frame reader has buffered
	bn       uint8
	readers  uint8 // reader goroutines started
	rsig     bool  // a reader has delivered to owner 0 and will signal
	sent     [2]uint8
	peerPC   uint8
	peerEOF  bool
	own      [2]owner
	wake     bool // owner 0's Waiter's one-slot signal
	closed   bool // owner 0's channel is closed
	other    uint8
	otherGot uint8
	flushPC  uint8
	peeks    uint8
	gone     bool // the peek saw the peer gone
	timeouts uint8
	secPC    uint8
	closePC  uint8
	elsePC   uint8
	acceptPC uint8
}

type roleCfg struct {
	name      string
	wait      bool    // owner 0 waits on a Waiter and Polls; else it Recvs
	frames    []uint8 // the peer's frames for owner 0
	kcap      uint8   // frames the socket holds before the peer's write blocks
	eof       bool    // the peer closes after its last frame
	peeks     uint8
	second    uint8 // 1: a second channel, 2: a second connection
	closer    bool
	elsewhere bool
	late      bool  // the acceptor names the connection after the actors start
	write     bool  // owner 0 writes first, and the write waits for the peer
	more      uint8 // frames owner 0 waits for that never come
	timeouts  uint8 // deadlines that pass while owner 0's wait reads
	// peekIgnoresBuffer is the peek as it was before it left buffered
	// bytes to the owner.
	peekIgnoresBuffer bool
}

const (
	secChannel = 1
	secConn    = 2
)

// roleCfgs are the worlds the explorer searches, each exhaustively.
var roleCfgs = []roleCfg{
	{name: "recv, peek, peer closes", frames: []uint8{toOwner, toOwner}, kcap: 2, eof: true, peeks: 2},
	{name: "wait, peek, another endpoint", wait: true, frames: []uint8{toOwner}, kcap: 2, peeks: 1, elsewhere: true},
	{name: "wait, a deadline passes", wait: true, frames: []uint8{toOwner}, kcap: 2, peeks: 1, timeouts: 2},
	{name: "wait, peek, peer closes", wait: true, frames: []uint8{toOwner, toOwner}, kcap: 2, eof: true, peeks: 1},
	{name: "second channel", frames: []uint8{toOwner}, kcap: 2, second: secChannel},
	{name: "second connection, named late", frames: []uint8{toOwner}, kcap: 2, second: secConn, late: true},
	{name: "wait, second connection", wait: true, frames: []uint8{toOwner}, kcap: 2, second: secConn, peeks: 1},
	{name: "close", frames: nil, more: 1, kcap: 2, closer: true, peeks: 1},
	{name: "named late", frames: []uint8{toOwner}, kcap: 2, late: true, peeks: 1},
	{name: "peer closes early", frames: []uint8{toOwner}, more: 1, kcap: 2, eof: true},
	{name: "flood", frames: []uint8{toOwner, toOwner}, kcap: 1, write: true, peeks: 1},
	{name: "flood, named late", frames: []uint8{toOwner, toOwner}, kcap: 1, write: true, late: true},
}

type stepFunc func(roleState, roleEvent) (roleState, roleAction)

type explorer struct {
	cfg   roleCfg
	step  stepFunc
	seen  map[world]bool
	path  map[world]bool // the worlds on the search's current path
	trace []string
	bad   string // the first violation, with its trace
}

func newWorld(cfg roleCfg) world {
	var w world
	w.own[0].want = uint8(len(cfg.frames)) + cfg.more
	if cfg.second == secConn {
		w.own[0].want++
	}
	w.own[1].pc = oAbsent
	if cfg.second == secChannel {
		w.own[1].want = 1
	}
	w.peeks, w.timeouts = cfg.peeks, cfg.timeouts
	if !cfg.late {
		w.s.rd, w.solo = rdIdle, true
	}
	return w
}

// explore searches every interleaving from the start of cfg, returning the
// first violation found (with its trace) and the number of worlds seen. A
// breadth-first pass finds the shortest trace to a broken invariant; a
// depth-first pass then looks for cycles, which breadth-first cannot see.
func explore(cfg roleCfg, f stepFunc) (string, int) {
	x := &explorer{cfg: cfg, step: f}
	if x.bfs(newWorld(cfg)); x.bad != "" {
		return x.bad, 0
	}
	x.seen, x.path = map[world]bool{}, map[world]bool{}
	x.dfs(newWorld(cfg))
	return x.bad, len(x.seen)
}

// bfs searches breadth-first, recording how it reached each world so that
// a violation's trace is a shortest one.
func (x *explorer) bfs(start world) {
	type edge struct {
		prev  world
		label string
	}
	from := map[world]edge{start: {}}
	traceTo := func(w world, last string) {
		var t []string
		if last != "" {
			t = append(t, last)
		}
		for ; w != start; w = from[w].prev {
			t = append(t, from[w].label)
		}
		slices.Reverse(t)
		x.trace = t
	}
	for queue := []world{start}; len(queue) > 0; queue = queue[1:] {
		w := queue[0]
		if inv := x.check(w); inv != 0 {
			traceTo(w, "")
			x.fail(inv)
			return
		}
		moved := false
		for a := 0; a < nActors; a++ {
			nw, label, ok := x.move(w, a)
			if !ok {
				continue
			}
			moved = true
			if inv := transitionCheck(w, nw); inv != 0 {
				traceTo(w, label)
				x.fail(inv)
				return
			}
			if _, seen := from[nw]; !seen {
				from[nw] = edge{w, label}
				queue = append(queue, nw)
			}
		}
		if inv := x.terminal(w); !moved && inv != 0 {
			traceTo(w, "")
			x.fail(inv)
			return
		}
	}
}

func (x *explorer) dfs(w world) {
	if x.path[w] {
		// Back where it was: every step of the model makes progress but a
		// read that ends with nothing, so a cycle is a waiter that spins.
		x.fail(invNoLostWake)
		return
	}
	if x.bad != "" || x.seen[w] {
		return
	}
	x.seen[w] = true
	x.path[w] = true
	defer delete(x.path, w)
	if inv := x.check(w); inv != 0 {
		x.fail(inv)
		return
	}
	moved := false
	for a := 0; a < nActors; a++ {
		nw, label, ok := x.move(w, a)
		if !ok {
			continue
		}
		moved = true
		if inv := transitionCheck(w, nw); inv != 0 {
			x.trace = append(x.trace, label)
			x.fail(inv)
			return
		}
		x.trace = append(x.trace, label)
		x.dfs(nw)
		x.trace = x.trace[:len(x.trace)-1]
		if x.bad != "" {
			return
		}
	}
	if !moved {
		if inv := x.terminal(w); inv != 0 {
			x.fail(inv)
		}
	}
}

func (x *explorer) fail(inv int) {
	x.bad = fmt.Sprintf("invariant %d (%s) fails in %q after %d steps:\n\t%s",
		inv, invName[inv], x.cfg.name, len(x.trace), strings.Join(x.trace, "\n\t"))
}

// holds reports whether owner o holds the read role in a read.
func (o *owner) holds() bool {
	switch o.pc {
	case oDeadline, oCheck, oRead, oEnd, oPollRead, oPollEnd:
		return true
	}
	return false
}

// check is the invariants that hold in every world.
func (x *explorer) check(w world) int {
	n := 0
	for i := range w.own {
		if w.own[i].holds() {
			n++
		}
	}
	if w.flushPC == 1 || w.flushPC == 2 {
		n++
	}
	if !w.failed {
		n += int(w.readers)
	}
	if n > 1 {
		return invOneReader
	}
	if w.own[0].pc == oBlocked && !w.failed && (w.s.rd == rdIdle || w.s.rd == rdBusy) {
		return invWriteFree
	}
	if (w.readers > 0 || w.s.shared) && w.s.rd == rdIdle {
		return invPermanent
	}
	return 0
}

func transitionCheck(w, nw world) int {
	if w.s.shared && !nw.s.shared {
		return invPermanent
	}
	return 0
}

// terminal checks a world where no actor can move: every frame sent is
// delivered or still on its way, and nobody who waits has been left with
// what it waits for — a frame, its channel's close, a frame elsewhere.
func (x *explorer) terminal(w world) int {
	var here [2]uint8 // frames for each owner still in the kernel or buffer
	for _, d := range w.kernel[:w.kn] {
		here[d]++
	}
	for _, d := range w.buf[:w.bn] {
		here[d]++
	}
	for i := range w.own {
		o := &w.own[i]
		if (i != 0 || !w.closed) && w.sent[i] > o.got+o.inbox+here[i] {
			return invBuffered
		}
		if o.pc == oDone || o.pc == oAbsent {
			continue
		}
		if here[i] > 0 || o.inbox > 0 || (i == 0 && (w.closed || w.other > 0 || w.wake)) {
			return invNoLostWake
		}
	}
	if x.cfg.second == 0 && !x.cfg.closer && !x.cfg.write && (w.readers > 0 || !w.solo) && !w.failed {
		return invInPlace
	}
	return 0
}

// The actors.
const (
	aOwner0 = iota
	aOwner1
	aPeer
	aReader
	aFlusher
	aSecond
	aCloser
	aElsewhere
	aAcceptor
	nActors
)

// change is changeLocked in the model: a transport event on the connection
// (conn) or on whichever the transport reads in place.
func (x *explorer) change(w *world, ev roleEvent, conn bool) roleAction {
	rd := w.s.rd
	if !conn && !w.solo {
		rd = rdOff
	}
	s, act := x.step(roleState{rd: rd, shared: w.s.shared, waits: w.s.waits}, ev)
	if conn || w.solo {
		w.s.rd = s.rd
	}
	w.s.shared = s.shared
	switch {
	case act&actSolo != 0:
		w.solo = true
		for i := range w.own {
			w.own[i].condWait = false
		}
		if x.cfg.wait {
			w.wake = true
			x.signal(w)
		}
	case act&actUnsolo != 0:
		w.solo = false
	}
	x.act(w, act)
	return act
}

// role is tcpConn.role in the model; waiter says the event carries owner
// 0's Waiter.
func (x *explorer) role(w *world, ev roleEvent, waiter bool) roleAction {
	s, act := x.step(roleState{rd: w.s.rd, parked: w.s.parked}, ev)
	w.s.rd = s.rd
	if waiter {
		w.s.parked = s.parked
	}
	x.act(w, act)
	return act
}

func (x *explorer) act(w *world, act roleAction) {
	if act&actInterrupt != 0 {
		w.cut = true
	}
	if act&actSpawn != 0 {
		w.readers++
	}
}

// signal is Waiter.signalRead after the wake is sent.
func (x *explorer) signal(w *world) {
	if _, act := x.step(roleState{parked: w.s.parked}, evSignal); act&actInterrupt != 0 {
		w.cut = true
	}
}

// take reads the next frame off the connection: from the frame reader's
// buffer, or else, while the socket is open, all that has arrived into the
// buffer first.
func (w *world) take() (uint8, bool) {
	if w.bn == 0 {
		if w.kn == 0 || w.failed {
			return 0, false
		}
		w.buf, w.bn = w.kernel, w.kn
		w.kernel, w.kn = [4]uint8{}, 0
	}
	d := w.buf[0]
	copy(w.buf[:], w.buf[1:])
	w.buf[3] = 0
	w.bn--
	return d, true
}

// push delivers a frame to owner d's inbox, sending its Waiter's wake;
// it reports whether the Waiter's evSignal is still to come.
func (x *explorer) push(w *world, d uint8) bool {
	if d == toOwner && w.closed {
		return false
	}
	o := &w.own[d]
	o.inbox++
	o.condWait = false
	if d == toOwner && x.cfg.wait {
		w.wake = true
		return true
	}
	return false
}

func (x *explorer) move(w world, a int) (world, string, bool) {
	switch a {
	case aOwner0, aOwner1:
		return x.moveOwner(w, a)
	case aPeer:
		if int(w.peerPC) < len(x.cfg.frames) {
			if w.kn >= x.cfg.kcap {
				return w, "", false
			}
			d := x.cfg.frames[w.peerPC]
			w.kernel[w.kn] = d
			w.kn++
			w.sent[d]++
			w.peerPC++
			return w, "peer: a frame arrives", true
		}
		if x.cfg.eof && !w.peerEOF {
			w.peerEOF = true
			return w, "peer: closes", true
		}
	case aReader:
		if w.readers == 0 || w.failed {
			return w, "", false
		}
		if w.rsig {
			w.rsig = false
			x.signal(&w)
			return w, "reader: signals the waiter (evSignal)", true
		}
		if d, ok := w.take(); ok {
			w.rsig = x.push(&w, d)
			return w, fmt.Sprintf("reader: delivers a frame for owner %d", d), true
		}
		if w.peerEOF {
			w.failed = true
			x.change(&w, evFail, true)
			return w, "reader: reads the end (evFail)", true
		}
	case aFlusher:
		return x.moveFlusher(w)
	case aSecond:
		return x.moveSecond(w)
	case aCloser:
		if !x.cfg.closer {
			break
		}
		switch w.closePC {
		case 0:
			w.closed = true
			w.own[0].condWait = false
			w.closePC++
			return w, "closer: shuts the channel", true
		case 1:
			w.closePC++
			x.change(&w, evClose, false)
			return w, "closer: evClose", true
		}
	case aElsewhere:
		if !x.cfg.elsewhere {
			break
		}
		switch w.elsePC {
		case 0:
			w.other++
			w.wake = true
			w.elsePC++
			return w, "elsewhere: a frame, wake sent", true
		case 1:
			w.elsePC++
			x.signal(&w)
			return w, "elsewhere: evSignal", true
		}
	case aAcceptor:
		if !x.cfg.late || w.acceptPC != 0 {
			break
		}
		w.acceptPC++
		if w.own[1].pc != oAbsent {
			w.readers++
			return w, "acceptor: names the connection, two channels: a reader", true
		}
		if x.change(&w, evPlace, true)&actSolo == 0 {
			w.readers++
			return w, "acceptor: evPlace refused: a reader", true
		}
		return w, "acceptor: evPlace", true
	}
	return w, "", false
}

func (x *explorer) moveFlusher(w world) (world, string, bool) {
	switch w.flushPC {
	case 0:
		if w.peeks == 0 || (x.cfg.late && w.acceptPC == 0) {
			break
		}
		w.peeks--
		if x.role(&w, evBegin, false)&actOwn != 0 {
			w.flushPC = 1
			return w, "flusher: evBegin, the peek holds the role", true
		}
		return w, "flusher: evBegin, the peek does not have the role", true
	case 1:
		w.gone = w.kn == 0 && w.peerEOF && (w.bn == 0 || x.cfg.peekIgnoresBuffer)
		w.flushPC = 2
		return w, fmt.Sprintf("flusher: peeks, peer gone %v", w.gone), true
	case 2:
		x.role(&w, evEnd, false)
		w.flushPC = 0
		if w.gone {
			w.flushPC = 3
		}
		return w, "flusher: evEnd", true
	case 3:
		w.flushPC = 0
		w.failed = true
		x.change(&w, evFail, true)
		return w, "flusher: drops the connection (evFail)", true
	}
	return w, "", false
}

func (x *explorer) moveSecond(w world) (world, string, bool) {
	switch x.cfg.second {
	case secChannel:
		switch w.secPC {
		case 0:
			w.secPC++
			w.own[1].pc = oLoop
			x.change(&w, evChannel, false)
			return w, "second: a channel (evChannel)", true
		case 1:
			if w.kn >= x.cfg.kcap {
				break
			}
			w.secPC++
			w.kernel[w.kn] = toSecond
			w.kn++
			w.sent[toSecond]++
			return w, "second: its frame arrives", true
		}
	case secConn:
		switch w.secPC {
		case 0:
			w.secPC++
			x.change(&w, evConn, false)
			return w, "second: a connection (evConn)", true
		case 1:
			w.secPC++
			w.sent[toOwner]++
			if !x.push(&w, toOwner) {
				w.secPC++
			}
			return w, "second: its reader delivers a frame for owner 0", true
		case 2:
			w.secPC++
			x.signal(&w)
			return w, "second: its reader signals (evSignal)", true
		}
	}
	return w, "", false
}

func (x *explorer) moveOwner(w world, i int) (world, string, bool) {
	o := &w.own[i]
	wait := i == 0 && x.cfg.wait
	who := fmt.Sprintf("owner %d: ", i)
	// route is where a frame read in place goes: returned, or put in the
	// owner's inbox by a wait, or pushed to the other owner.
	route := func(d uint8, put bool) {
		switch {
		case int(d) != i:
			if x.push(&w, d) {
				x.signal(&w)
			}
		case put:
			o.inbox++
		default:
			o.mine = true
		}
	}
	switch o.pc {
	case oLoop:
		switch {
		case o.got >= o.want && (i != 0 || !x.cfg.elsewhere || w.otherGot > 0):
			o.pc = oDone
			return w, who + "has all it waits for", true
		case i == 0 && x.cfg.write && !o.wrote:
			o.pc = oWrite
			return w, who + "writes", true
		case wait && w.other > 0:
			w.other--
			w.otherGot++
			return w, who + "takes the frame at the other endpoint", true
		case o.inbox > 0:
			o.inbox--
			o.got++
			return w, who + "takes a frame from its inbox", true
		case i == 0 && w.closed:
			o.pc = oDone
			return w, who + "sees its channel closed", true
		case wait && w.solo:
			o.pc = oPoll
			return w, who + "Poll reads in place", true
		case wait:
			o.pc = oWait
			return w, who + "Poll finds nothing", true
		case w.solo:
			o.pc = oBegin
			return w, who + "Recv reads in place", true
		default:
			o.condWait = true
			o.pc = oPark
			return w, who + "Recv parks on the queue", true
		}
	case oBegin, oPoll:
		ev := evBegin
		if wait && o.pc == oBegin {
			ev = evWait
		}
		if _, act := x.step(roleState{rd: w.s.rd}, ev); act&actRetry != 0 {
			return w, "", false // readOwn yields until the role is free
		}
		act := x.role(&w, ev, ev == evWait)
		switch {
		case act&actOwn != 0 && o.pc == oPoll:
			o.pc = oPollRead
		case act&actOwn != 0:
			o.pc = oDeadline
		case wait && o.pc == oBegin:
			o.pc = oPark // waitRead reports nothing waited: park on the wake
		case wait:
			o.pc = oWait
		default:
			o.pc = oLoop
		}
		return w, fmt.Sprintf("%s%s: role %s", who, evNames[ev], actString(act)), true
	case oDeadline:
		w.cut = false
		o.pc = oCheck
		return w, who + "sets its read deadline", true
	case oCheck:
		o.pc = oRead
		if wait && w.wake {
			w.wake = false
			o.pc = oEnd
			return w, who + "finds the wake: no read", true
		}
		if w.s.rd != rdBusy {
			o.pc = oEnd
			return w, who + "finds the role handed over: no read", true
		}
		return w, who + "reads", true
	case oRead:
		d, ok := w.take()
		switch {
		case ok:
			route(d, wait)
		case w.failed:
		case w.peerEOF:
			w.failed = true
			x.change(&w, evFail, true)
		case w.cut:
		case wait && w.timeouts > 0:
			w.timeouts--
		default:
			return w, "", false
		}
		if wait {
			w.wake = false
		}
		o.pc = oEnd
		return w, fmt.Sprintf("%sread ends (frame %v, cut %v, failed %v)", who, ok, w.cut, w.failed), true
	case oEnd:
		x.role(&w, evEnd, wait)
		o.pc = oLoop
		if o.mine {
			o.mine = false
			o.got++
		}
		return w, who + "evEnd", true
	case oPollRead:
		got := false
		if w.s.rd == rdBusy {
			var d uint8
			if d, got = w.take(); got {
				route(d, false)
			} else if w.peerEOF && !w.failed {
				w.failed = true
				x.change(&w, evFail, true)
			}
		}
		o.pc = oPollEnd
		return w, fmt.Sprintf("%sPoll's read (frame %v)", who, got), true
	case oPollEnd:
		x.role(&w, evEnd, false)
		o.pc = oWait
		if o.mine {
			o.mine = false
			o.got++
			o.pc = oLoop
		}
		return w, who + "Poll's evEnd", true
	case oWait:
		if w.solo {
			o.pc = oBegin
			return w, who + "WaitUntil reads in place", true
		}
		o.pc = oPark
		return w, who + "WaitUntil parks on the wake", true
	case oPark:
		if wait {
			if !w.wake {
				return w, "", false
			}
			w.wake = false
		} else if o.condWait {
			return w, "", false
		}
		o.pc = oLoop
		return w, who + "wakes", true
	case oWrite:
		n, act := x.step(roleState{waits: w.s.waits}, evWriteWait)
		w.s.waits = n.waits
		o.snap = act&actShareAll != 0 && w.solo
		o.pc = oShare
		return w, who + "evWriteWait " + actString(act), true
	case oShare:
		if o.snap {
			x.change(&w, evShare, false)
		}
		o.pc = oBlocked
		return w, who + "shares what was in place (evShare), blocks", true
	case oBlocked:
		if int(w.peerPC) < len(x.cfg.frames) {
			return w, "", false // the peer reads only once it has written
		}
		n, _ := x.step(roleState{waits: w.s.waits}, evWriteDone)
		w.s.waits = n.waits
		o.wrote = true
		o.pc = oLoop
		return w, who + "write done (evWriteDone)", true
	}
	return w, "", false
}

var evNames = map[roleEvent]string{
	evPlace: "evPlace", evConn: "evConn", evChannel: "evChannel", evNotify: "evNotify",
	evClose: "evClose", evShare: "evShare", evWriteWait: "evWriteWait", evWriteDone: "evWriteDone",
	evBegin: "evBegin", evWait: "evWait", evEnd: "evEnd", evFail: "evFail", evSignal: "evSignal",
}

func actString(a roleAction) string {
	var s []string
	for i, n := range []string{"own", "retry", "solo", "unsolo", "spawn", "interrupt", "shareAll"} {
		if a&(1<<i) != 0 {
			s = append(s, n)
		}
	}
	return "{" + strings.Join(s, ",") + "}"
}

// TestReadRoleExplorer explores every configuration against step: no
// violation, and well under the two seconds tier-1 allows it.
func TestReadRoleExplorer(t *testing.T) {
	start := time.Now()
	total := 0
	for _, cfg := range roleCfgs {
		bad, n := explore(cfg, step)
		if bad != "" {
			t.Error(bad)
		}
		total += n
	}
	t.Logf("%d configurations, %d worlds, %v", len(roleCfgs), total, time.Since(start))
}

// roleMutations are rules taken out of step, or broken in it: each must
// yield a counterexample. The first six are the mutations the role's
// real-socket tests were first checked against, the next two the role's two
// liveness bugs that hanging tests found; the rest are the other rules
// still in step.
var roleMutations = []struct {
	name string
	inv  int // the invariant its counterexample breaks
	step stepFunc
}{
	{"no placement", invInPlace, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evPlace {
			s.shared = true
			return s, 0
		}
		return step(s, ev)
	}},
	{"a fresh reader at hand-over", invOneReader, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evConn || ev == evChannel || ev == evClose || ev == evShare {
			if s.rd == rdBusy {
				s.shared, s.rd = true, rdOff
				return s, actUnsolo | actSpawn
			}
		}
		return step(s, ev)
	}},
	{"no share on a second channel", invNoLostWake, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evChannel {
			return s, 0
		}
		return step(s, ev)
	}},
	{"no shareAll", invWriteFree, func(s roleState, ev roleEvent) (roleState, roleAction) {
		n, act := step(s, ev)
		return n, act &^ actShareAll
	}},
	{"no waiter interrupt", invNoLostWake, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evSignal {
			return s, 0
		}
		return step(s, ev)
	}},
	{"no interrupt on channel Close", invNoLostWake, func(s roleState, ev roleEvent) (roleState, roleAction) {
		n, act := step(s, ev)
		if ev == evClose {
			act &^= actInterrupt
		}
		return n, act
	}},
	{"placement while a write waits", invWriteFree, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evPlace {
			s.waits = 0
		}
		return step(s, ev)
	}},
	{"a wait parks elsewhere while the peek holds the role", invNoLostWake, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evWait && s.rd == rdBusy {
			return s, 0
		}
		return step(s, ev)
	}},
	{"no share on a second connection", invNoLostWake, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evConn {
			return s, 0
		}
		return step(s, ev)
	}},
	{"placement after a hand-over", invPermanent, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evPlace {
			s.shared = false
		}
		return step(s, ev)
	}},
	{"the reader that lets go keeps the role in place", invPermanent, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evEnd && s.rd == rdHandoff {
			s.rd, s.parked = rdIdle, false
			return s, 0
		}
		return step(s, ev)
	}},
	{"a failed connection stays in place", invNoLostWake, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evFail {
			return s, 0
		}
		return step(s, ev)
	}},
	{"a peek's hold is not waited out by Recv", invOneReader, func(s roleState, ev roleEvent) (roleState, roleAction) {
		if ev == evBegin && s.rd == rdBusy {
			return s, actOwn
		}
		return step(s, ev)
	}},
}

// TestReadRoleMutations: every mutation of step yields a counterexample,
// printed as the event trace that reaches it.
func TestReadRoleMutations(t *testing.T) {
	for _, m := range roleMutations {
		t.Run(strings.ReplaceAll(m.name, " ", "_"), func(t *testing.T) {
			for _, cfg := range roleCfgs {
				if bad, _ := explore(cfg, m.step); bad != "" {
					if !strings.HasPrefix(bad, fmt.Sprintf("invariant %d ", m.inv)) {
						t.Errorf("want invariant %d (%s); got %s", m.inv, invName[m.inv], bad)
					}
					t.Log(bad)
					return
				}
			}
			t.Errorf("no counterexample")
		})
	}
}

// TestReadRolePeekLeavesBuffer: the peek that failed a connection with
// frames still buffered in the owner's reader lost them.
func TestReadRolePeekLeavesBuffer(t *testing.T) {
	for _, cfg := range roleCfgs {
		if cfg.eof {
			cfg.peekIgnoresBuffer = true
			if bad, _ := explore(cfg, step); bad != "" {
				t.Log(bad)
				return
			}
		}
	}
	t.Error("no counterexample")
}
