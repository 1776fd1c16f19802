package poa_test

import (
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// recvSignal is a computing thread that reports each of its receives once
// armed.
type recvSignal struct {
	rts.Thread
	armed bool // set and read by the owning thread only
	got   chan struct{}
}

func (w *recvSignal) Recv(src int, tag rts.Tag) rts.Message {
	m := w.Thread.Recv(src, tag)
	if w.armed {
		select {
		case w.got <- struct{}{}:
		default:
		}
	}
	return m
}

// TestSiblingWakesOnAgreementFrame: a Shutdown reaches thread 0 of a
// 2-thread SPMD adapter only, while thread 1 is parked in its idle wait with
// a 5 s PollInterval. Thread 0's agreement frame must wake thread 1 at once,
// so both ImplIsReady calls return well inside the poll interval — with the
// plain agreement, and with AgreementDeadline set, where the frame that
// wakes the sibling is the liveness barrier's and thread 0 parks in a
// deadline receive on the same one wait the sibling's router feeds.
func TestSiblingWakesOnAgreementFrame(t *testing.T) {
	for _, c := range []struct {
		name     string
		deadline float64
	}{{"plain", 0}, {"deadline", 10}} {
		t.Run(c.name, func(t *testing.T) {
			fab := nexus.NewInproc()
			g := rts.NewChanGroup("wake-srv", 2)
			sibling := &recvSignal{Thread: g.Thread(1), got: make(chan struct{}, 1)}
			iorCh := make(chan core.IOR, 1)
			done := make(chan int, 2)
			for rank, th := range []rts.Thread{g.Thread(0), sibling} {
				go func() {
					p := poa.New(th, core.NewRouter(fab.NewEndpoint("s")), nil)
					p.PollInterval = 5
					p.AgreementDeadline = c.deadline
					ior, err := p.RegisterSPMD("wake-1", scaleIface(), scaleServant{})
					if err != nil {
						t.Error(err)
					}
					if rank == 0 {
						iorCh <- ior
					} else {
						sibling.armed = true
					}
					p.ImplIsReady()
					done <- rank
				}()
			}
			ior := <-iorCh
			client := newClient(fab, nil)
			if c.deadline == 0 {
				// No empty phase reaches the sibling, so it is armed on the
				// decision of one served SPMD request.
				spmd, err := client.SPMDBind(ior, scaleIface())
				if err != nil {
					t.Fatal(err)
				}
				if vals, err := spmd.Invoke("size", []any{nil}); err != nil || vals[0] != int32(2) {
					t.Fatalf("size = %v, %v", vals, err)
				}
			}
			// The sibling's first receive inside ImplIsReady is from the
			// first agreement phase: thread 0 has run a phase, and the
			// sibling is on its way into a 5 s idle wait.
			<-sibling.got
			b, err := client.Bind(ior, scaleIface())
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Shutdown("done"); err != nil {
				t.Fatal(err)
			}
			timeout := time.After(time.Second)
			for range 2 {
				select {
				case <-done:
				case <-timeout:
					t.Fatal("an ImplIsReady did not return within 1 s of the Shutdown")
				}
			}
		})
	}
}

// TestSharedRouterOneRegistration: a thread that is both client and server
// shares one router between its ORB and its POA. Both join the thread's
// one wait on one registration of the router's endpoint, so a call with a
// 5 s deadline armed — its pump parked on that wait — sees its reply at
// once rather than at its deadline. A second, thread-less ORB over the same
// router is a second waiter on a watched endpoint: its first timed wait,
// where an ORB adds its router to its wait, fails loudly.
func TestSharedRouterOneRegistration(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startSingleServer(t, fab, nil)
	th := rts.NewChanGroup("both", 1).Thread(0)
	r := core.NewRouter(fab.NewEndpoint("both"))
	p := poa.New(th, r, nil)
	p.PollInterval = 5
	b, err := core.NewORB(r, th, nil).Bind(ior, echoIface())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(5)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if vals, err := b.Invoke("shout", []any{"x", nil}); err != nil || vals[1] != "X" {
			t.Fatalf("call %d: %v, %v", i, vals, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("call %d took %v: the armed pump did not wake on its reply", i, took)
		}
	}
	// The second ORB calls an endpoint nobody serves, so no reply can end its
	// timed wait before the wait watches the router.
	mute := ior
	mute.Addrs = []string{string(fab.NewEndpoint("mute").Addr())}
	b2, err := core.NewORB(r, nil, nil).Bind(mute, echoIface())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := b2.InvokeNB("shout", []any{"x", nil})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second waiter watched the router's endpoint")
			}
		}()
		cell.WaitTimeout(0.05)
	}()
	if err := b.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	wait()
}
