package nexus

import (
	"sync"
	"sync/atomic"
	"time"
)

// Who reads a frame (DESIGN.md §12): a connection that is its transport's
// only one, on a transport with one channel, is read in place by the
// channel's owner, until an event hands it to a reader goroutine for good.
// step holds every rule of this read role; the apply helpers below are the
// only code that writes the role's state; readrole_test.go explores every
// interleaving of its events against the role's invariants.

// roleState is what step looks at: the connection's word (compare-and-swap),
// the transport's and the process's facts (under roleMu), the Waiter's.
type roleState struct {
	rd     int32 // rdOff, rdIdle, rdBusy or rdHandoff
	shared bool  // the transport reads in place never again
	waits  int32 // writes of the process waiting for room in a socket
	parked bool  // a Waiter's wait is parked in the read
}

// Connection words. Idle and Busy are in place: the transport's solo, and
// entered in inPlace.
const (
	rdOff     int32 = iota // a reader goroutine reads, or nobody: the read side is over
	rdIdle                 // read in place; nobody is reading now
	rdBusy                 // read in place; the owner, or the flusher's peek, is reading
	rdHandoff              // Busy, and handed over when the reader lets go
)

type roleEvent uint8

const (
	evPlace     roleEvent = iota // a connection is named, its transport's only one, with one channel
	evConn                       // a second connection, or a dial to the transport itself
	evChannel                    // a second channel
	evNotify                     // a watcher that will not read (RecvNotifier)
	evClose                      // a NewChannel endpoint closes
	evShare                      // a write of the process waits: share this transport
	evWriteWait                  // a write of the process is about to wait for room
	evWriteDone                  // it waits no more
	evBegin                      // the owner's Recv or Poll, or the flusher's peek, begins a read
	evWait                       // a Waiter's wait begins a read
	evEnd                        // that read ends
	evFail                       // the connection failed: nobody reads it again
	evSignal                     // a frame reached an endpoint the Waiter watches
)

type roleAction uint8

const (
	actOwn       roleAction = 1 << iota // the caller holds the role: read
	actRetry                            // the role is held for a moment: try again
	actSolo                             // the connection goes in place; wake the owner
	actUnsolo                           // the connection leaves the owner
	actSpawn                            // start its reader goroutine, with the owner's frame reader
	actInterrupt                        // cut the read in progress short
	actShareAll                         // share every transport read in place
)

// step is the read role's transition function.
func step(s roleState, ev roleEvent) (roleState, roleAction) {
	switch ev {
	case evPlace:
		if s.shared || s.waits > 0 {
			// The thread a write blocks may be the one that would read.
			s.shared = true
			return s, 0
		}
		s.rd = rdIdle
		return s, actSolo
	case evConn, evChannel, evNotify, evClose, evShare:
		s.shared = true
		switch s.rd {
		case rdIdle:
			s.rd = rdOff
			return s, actUnsolo | actSpawn
		case rdBusy:
			s.rd = rdHandoff
			return s, actUnsolo | actInterrupt
		}
	case evWriteWait:
		s.waits++
		return s, actShareAll
	case evWriteDone:
		s.waits--
	case evBegin, evWait:
		switch s.rd {
		case rdIdle:
			s.rd, s.parked = rdBusy, ev == evWait
			return s, actOwn
		case rdBusy:
			// The peek: a frame reaching the connection meanwhile would
			// signal nobody, so a wait must not park elsewhere.
			return s, actRetry
		}
	case evEnd:
		s.parked = false
		switch s.rd {
		case rdBusy:
			s.rd = rdIdle
		case rdHandoff:
			s.rd = rdOff
			return s, actSpawn
		}
	case evFail:
		in := s.rd == rdIdle || s.rd == rdBusy
		s.rd, s.parked = rdOff, false
		if in {
			return s, actUnsolo
		}
	case evSignal:
		if s.parked {
			return s, actInterrupt
		}
	}
	return s, 0
}

// roleMu orders the transport and process events: a connection is placed
// before a waiting write looks at inPlace, and shared by it, or sees the
// write counted in blockedWrites.
var (
	roleMu        sync.Mutex
	inPlace       = map[*TCPTransport]bool{}
	blockedWrites atomic.Int32
)

// changeLocked applies a transport event to t and tc, the connection it
// concerns (nil: the one read in place, if any), and carries out its
// actions. Caller holds t.mu.
func (t *TCPTransport) changeLocked(tc *tcpConn, ev roleEvent) roleAction {
	roleMu.Lock()
	defer roleMu.Unlock()
	if tc == nil {
		tc = t.solo.Load()
	}
	var s roleState
	var act roleAction
	for {
		var rd int32
		if tc != nil {
			rd = tc.rstate.Load()
		}
		s, act = step(roleState{rd: rd, shared: t.shared, waits: blockedWrites.Load()}, ev)
		if tc == nil || tc.rstate.CompareAndSwap(rd, s.rd) {
			break
		}
	}
	t.shared = s.shared
	switch {
	case act&actSolo != 0:
		t.solo.Store(tc)
		inPlace[t] = true
		for _, ch := range t.chans {
			ch.wake()
		}
	case act&actUnsolo != 0 && t.solo.Load() == tc:
		t.solo.Store(nil)
		delete(inPlace, t)
	}
	tc.act(act)
	return act
}

// change is changeLocked for a caller that does not hold t.mu.
func (t *TCPTransport) change(ev roleEvent) {
	t.mu.Lock()
	t.changeLocked(nil, ev)
	t.mu.Unlock()
}

// writeWaits applies evWriteWait or evWriteDone for the process: a write
// that would wait first shares every transport read in place, as the thread
// it blocks may own any of them.
func writeWaits(ev roleEvent) {
	var ts []*TCPTransport
	roleMu.Lock()
	n := blockedWrites.Load()
	s, act := step(roleState{waits: n}, ev)
	blockedWrites.Add(s.waits - n)
	for t := range inPlace {
		if act&actShareAll != 0 {
			ts = append(ts, t)
		}
	}
	roleMu.Unlock()
	for _, t := range ts {
		t.change(evShare)
	}
}

// role applies a read event to tc's word by compare-and-swap — the owner's
// and the peek's, which take no lock — recording in w, if given, whether a
// wait is parked in the read.
func (tc *tcpConn) role(ev roleEvent, w *Waiter) roleAction {
	for {
		rd := tc.rstate.Load()
		s, act := step(roleState{rd: rd, parked: w != nil && w.parked.Load() != nil}, ev)
		if !tc.rstate.CompareAndSwap(rd, s.rd) {
			continue
		}
		if w != nil && s.parked {
			w.parked.Store(tc)
		} else if w != nil {
			w.parked.Store(nil)
		}
		tc.act(act)
		return act
	}
}

// release ends a read or peek of tc.
func (tc *tcpConn) release() { tc.role(evEnd, nil) }

// act carries out a connection's interrupt and hand-over. The interrupt
// ends the owner's read in place, or its next one, at once: the owner sets
// its deadline before it checks the word and the Waiter's wake, and whoever
// interrupts has set those first.
func (tc *tcpConn) act(act roleAction) {
	if act&actInterrupt != 0 {
		tc.c.SetReadDeadline(time.Unix(1, 0))
	}
	if act&actSpawn != 0 {
		tcpReadHandoffs.Inc()
		go tc.t.readLoop(tc.c, tc)
	}
}
