package apps

import (
	"errors"
	"fmt"
	"sync"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// WallClock reports whether th runs an application's numerics: all but a
// simulated thread do, which only charges their cost models.
func WallClock(th rts.Thread) bool {
	_, sim := th.(*rts.SimThread)
	return !sim
}

// A Launcher starts an application's programs on one fabric and waits for
// them: Inproc on the wall clock, Sim on virtual time. Each application's
// Deploy writes its topology once, against this interface.
type Launcher interface {
	// Start starts a program on at. Each thread runs body with an adapter
	// and an ORB on its own endpoint, named name-rank. Rank 0 publishes
	// the program's references through publish, which does nothing on
	// other ranks or a second time; any thread of any program reads them
	// through the returned Ref.
	Start(name string, at Program, body Body) Ref
	// Wait returns once every program has returned, with their errors.
	Wait() error
}

// Program places one program: the host it runs on and its thread count.
type Program struct {
	Host    string
	Threads int
}

// Body is one thread of a program.
type Body func(th rts.Thread, adapter *poa.POA, orb *core.ORB, publish func(...core.IOR)) error

// A Ref reads what a program's rank 0 published, waiting for it. Once rank
// 0 has returned without publishing, it returns rank 0's error instead.
type Ref func(th rts.Thread) ([]core.IOR, error)

// Serve is the body of a server program: each thread registers its part
// of the object, rank 0 publishes the reference, and every thread serves
// until a client shuts the program down.
func Serve(register func(adapter *poa.POA) (core.IOR, error)) Body {
	return func(_ rts.Thread, adapter *poa.POA, _ *core.ORB, publish func(...core.IOR)) error {
		ior, err := register(adapter)
		if err == nil {
			publish(ior)
			adapter.ImplIsReady()
		}
		return err
	}
}

// programs is what a launcher keeps of its programs: their errors.
type programs struct {
	mu  sync.Mutex
	err error
}

// published is what settles a program's Ref.
type published struct {
	refs []core.IOR
	err  error
}

// run runs body on th, with an ORB and an adapter (polling every poll
// seconds, if set) on ep, and settles rank 0's Ref through post: with what
// it publishes first, or else with the error it returns.
func (ps *programs) run(name string, th rts.Thread, ep nexus.Endpoint, poll float64, body Body, post func(published)) {
	router := core.NewRouter(ep)
	orb := core.NewORB(router, th, nil)
	adapter := poa.New(th, router, nil)
	if poll > 0 {
		adapter.PollInterval = poll
	}
	settled := th.Rank() != 0
	err := body(th, adapter, orb, func(refs ...core.IOR) {
		if !settled {
			settled = true
			post(published{refs: refs})
		}
	})
	if err != nil {
		err = fmt.Errorf("%s-%d: %w", name, th.Rank(), err)
		ps.mu.Lock()
		ps.err = errors.Join(ps.err, err)
		ps.mu.Unlock()
	} else if !settled {
		err = fmt.Errorf("%s: rank 0 returned without publishing", name)
	}
	if !settled {
		post(published{err: err})
	}
}

// Inproc launches programs on the wall clock, each thread with its own
// endpoint on one in-process fabric. A host is only a name here.
type Inproc struct {
	programs
	fab     *nexus.Inproc
	running sync.WaitGroup
}

// NewInproc returns a launcher on a fresh in-process fabric.
func NewInproc() *Inproc { return &Inproc{fab: nexus.NewInproc()} }

// Start implements Launcher.
func (d *Inproc) Start(name string, at Program, body Body) Ref {
	board := make(chan published, 1)
	d.running.Add(1)
	go func() {
		defer d.running.Done()
		rts.NewChanGroup(at.Host, at.Threads).Run(func(th rts.Thread) {
			d.run(name, th, d.fab.NewEndpoint(fmt.Sprintf("%s-%d", name, th.Rank())), 0, body, func(p published) { board <- p })
		})
	}()
	return func(rts.Thread) ([]core.IOR, error) {
		p := <-board
		board <- p
		return p.refs, p.err
	}
}

// Wait implements Launcher.
func (d *Inproc) Wait() error {
	d.running.Wait()
	return d.err
}

// Sim launches programs on the vtime virtual clock over the simnet models
// of the paper's testbed, each thread a vtime process on a node of its
// host with its own endpoint on one simulated fabric.
type Sim struct {
	programs
	sim *vtime.Sim
	fab *nexus.SimFabric
	tb  *simnet.Testbed
	end vtime.Time
}

// NewSim returns a launcher on a fresh simulation of the paper's testbed.
func NewSim() *Sim {
	sim := vtime.NewSim()
	return &Sim{sim: sim, fab: nexus.NewSimFabric(sim), tb: simnet.PaperTestbed()}
}

// Connect routes two hosts over a named testbed link.
func (s *Sim) Connect(hostA, hostB, link string) { s.fab.Connect(hostA, hostB, s.tb.Link(link)) }

// Endpoint is what each thread of a simulated program talks through.
type Endpoint struct {
	Async bool                 // a communication-thread endpoint (the paper's §6 proposal)
	Fault *nexus.FaultInjector // wraps the endpoint when set
	Bare  bool                 // one thread, its endpoint named name rather than name-0
}

// Start implements Launcher on plain endpoints.
func (s *Sim) Start(name string, at Program, body Body) Ref {
	return s.Spawn(name, at, Endpoint{}, body)
}

// Spawn is Start on the endpoints e describes. Each thread's POA polls
// every 2 ms. Names are part of the model: addresses travel in IORs and
// requests, so renaming an endpoint moves the figures.
func (s *Sim) Spawn(name string, at Program, e Endpoint, body Body) Ref {
	h := s.tb.Host(at.Host)
	board := vtime.NewChan(s.sim, name+"-ior")
	rts.NewSimGroup(s.sim, h, at.Threads).Spawn(name, func(t rts.Thread) {
		th := t.(*rts.SimThread)
		epName := fmt.Sprintf("%s-%d", name, th.Rank())
		if e.Bare {
			epName = name
		}
		var ep nexus.Endpoint
		if e.Async {
			ep = nexus.NewAsyncSimEndpoint(s.fab, epName, th.Proc(), h)
		} else {
			ep = s.fab.NewEndpoint(epName, th.Proc(), h)
		}
		if e.Fault != nil {
			ep = e.Fault.Wrap(ep)
		}
		s.run(name, th, ep, 2e-3, body, func(p published) { th.Proc().Send(board, p, 0) })
	})
	// The board is a bulletin board: each reader puts back what it takes.
	return func(th rts.Thread) ([]core.IOR, error) {
		proc := th.(*rts.SimThread).Proc()
		p := proc.Recv(board).(published)
		proc.Send(board, p, 0)
		return p.refs, p.err
	}
}

// Wait implements Launcher: it runs the simulation to its end, which adds
// an error of its own if a process deadlocks or panics.
func (s *Sim) Wait() error {
	end, err := s.sim.Run()
	s.end = end
	return errors.Join(s.err, err)
}

// End is the final virtual time of the simulation Wait ran.
func (s *Sim) End() vtime.Time { return s.end }

// A Span is the virtual time a simulated program's rank 0 spends between
// Start and Stop. On the wall clock, and as a nil *Span, it measures
// nothing.
type Span [2]vtime.Time

// Start marks the span's start on th's clock.
func (s *Span) Start(th rts.Thread) { s.mark(th, 0) }

// Stop marks the span's end on th's clock.
func (s *Span) Stop(th rts.Thread) { s.mark(th, 1) }

// Seconds is the span's length.
func (s *Span) Seconds() float64 { return (s[1] - s[0]).Seconds() }

func (s *Span) mark(th rts.Thread, end int) {
	if st, sim := th.(*rts.SimThread); sim && s != nil && th.Rank() == 0 {
		s[end] = st.Proc().Now()
	}
}
