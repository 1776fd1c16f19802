package apps

import (
	"errors"
	"fmt"
	"sync"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// WallClock reports whether th runs an application's numerics: all but a
// simulated thread do, which only charges their cost models.
func WallClock(th rts.Thread) bool {
	_, sim := th.(*rts.SimThread)
	return !sim
}

// Inproc runs programs on the wall clock, each thread with its own
// endpoint on one in-process fabric, and joins their errors. It is the one
// in-process deployment the applications' Run functions share.
type Inproc struct {
	fab      *nexus.Inproc
	programs sync.WaitGroup
	mu       sync.Mutex
	err      error
}

// NewInproc returns a deployment on a fresh in-process fabric.
func NewInproc() *Inproc { return &Inproc{fab: nexus.NewInproc()} }

// Start runs a program of n threads on host name in the background, each
// with an adapter and an ORB on its router, its endpoint named name-rank.
// Its rank 0 may publish one reference, on the returned channel.
func (d *Inproc) Start(name string, n int, body func(th rts.Thread, adapter *poa.POA, orb *core.ORB, publish func(core.IOR)) error) <-chan core.IOR {
	ref := make(chan core.IOR, 1)
	d.programs.Add(1)
	go func() {
		defer d.programs.Done()
		rts.NewChanGroup(name, n).Run(func(th rts.Thread) {
			router := core.NewRouter(d.fab.NewEndpoint(fmt.Sprintf("%s-%d", name, th.Rank())))
			if err := body(th, poa.New(th, router, nil), core.NewORB(router, th, nil), func(ior core.IOR) { ref <- ior }); err != nil {
				d.mu.Lock()
				d.err = errors.Join(d.err, fmt.Errorf("%s-%d: %w", name, th.Rank(), err))
				d.mu.Unlock()
			}
		})
	}()
	return ref
}

// Wait returns once every program has returned, with their errors.
func (d *Inproc) Wait() error {
	d.programs.Wait()
	return d.err
}
