// Package bench regenerates the measurements of the paper's evaluation
// section on the simulated testbed: Figure 2 (distributed vs. local solver
// execution), Figure 4 (centralized vs. distributed single objects on a
// parallel server) and Figure 5 (the POOMA/PSTL pipeline), plus ablation
// experiments for the design choices DESIGN.md calls out.
//
// Every experiment that invokes objects is a PARDIS program, written
// against what pardis-idl generates. Figures 2, 4 and 5 deploy the paper's
// applications, internal/apps/linsolve, dnadb and pipeline, which the
// examples run on the wall clock; a figure's file holds only hosts, links,
// endpoints and the clock read around the run. The rest use the harness's
// own interfaces, benchidl/bench.idl. Everything runs the full stack on the
// vtime virtual clock over the simnet machine models, so results are
// deterministic functions of the model, comparable with the 1997 testbed
// in *shape* (who wins, by what factor, where curves cross), not in
// microseconds.
package bench

import (
	"fmt"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// world is one simulated deployment under construction.
type world struct {
	sim *vtime.Sim
	fab *nexus.SimFabric
	tb  *simnet.Testbed
}

func newWorld() *world {
	sim := vtime.NewSim()
	return &world{sim: sim, fab: nexus.NewSimFabric(sim), tb: simnet.PaperTestbed()}
}

// connect routes two hosts over a named testbed link.
func (w *world) connect(hostA, hostB, link string) {
	w.fab.Connect(hostA, hostB, w.tb.Link(link))
}

// endpoint is what each thread of a simulated program talks through.
type endpoint struct {
	async bool                 // a communication-thread endpoint (the paper's §6 proposal)
	fault *nexus.FaultInjector // wraps the endpoint when set
	bare  bool                 // one thread, its endpoint named name rather than name-0
}

// spawn launches a simulated program of p threads on host. Each thread gets
// its own endpoint, named name-rank, with an ORB and a POA (polling every
// 2 ms) on its one router: a thread calls through the ORB, and serves when
// body hands the POA its thread with ImplIsReady. Names are part of the
// model: addresses travel in IORs and requests, so renaming an endpoint
// moves the figures.
func (w *world) spawn(name, host string, p int, e endpoint, body func(th *rts.SimThread, adapter *poa.POA, orb *core.ORB)) {
	h := w.tb.Host(host)
	rts.NewSimGroup(w.sim, h, p).Spawn(name, func(t rts.Thread) {
		th := t.(*rts.SimThread)
		epName := fmt.Sprintf("%s-%d", name, th.Rank())
		if e.bare {
			epName = name
		}
		var ep nexus.Endpoint
		if e.async {
			ep = nexus.NewAsyncSimEndpoint(w.fab, epName, th.Proc(), h)
		} else {
			ep = w.fab.NewEndpoint(epName, th.Proc(), h)
		}
		if e.fault != nil {
			ep = e.fault.Wrap(ep)
		}
		router := core.NewRouter(ep)
		orb := core.NewORB(router, th, nil)
		adapter := poa.New(th, router, nil)
		adapter.PollInterval = 2e-3
		body(th, adapter, orb)
	})
}

// spmdServer launches an SPMD server program of p threads on host; setup
// registers the servant on every thread's adapter. Thread 0's IOR is
// delivered on the returned channel before the threads start polling.
func (w *world) spmdServer(name, host string, p int, setup func(adapter *poa.POA) (core.IOR, error)) *vtime.Chan {
	iorCh := vtime.NewChan(w.sim, name+"-ior")
	w.spawn(name, host, p, endpoint{}, func(th *rts.SimThread, adapter *poa.POA, _ *core.ORB) {
		ior := must(setup(adapter))
		if th.Rank() == 0 {
			th.Proc().Send(iorCh, ior, 0)
		}
		adapter.ImplIsReady()
	})
	return iorCh
}

// run executes the simulation, returning the final virtual time.
func (w *world) run() vtime.Time {
	final, err := w.sim.Run()
	if err != nil {
		panic("bench: simulation failed: " + err.Error())
	}
	return final
}

// peek receives a value published on ch and puts it back, so any number of
// threads can read it (the channel acts as a bulletin board).
func peek[T any](th rts.Thread, ch *vtime.Chan) T {
	p := th.(*rts.SimThread).Proc()
	v := p.Recv(ch)
	p.Send(ch, v, 0)
	return v.(T)
}

// must returns v, or panics with err: a simulated program has nobody to
// hand an error to.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics with err, if there is one.
func check(err error) {
	if err != nil {
		panic(err)
	}
}
