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
// armed, and passes the arrival notification of its endpoint through.
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

func (w *recvSignal) SetRecvNotify(fn func()) bool {
	n, ok := w.Thread.(nexus.RecvNotifier)
	return ok && n.SetRecvNotify(fn)
}

// TestSiblingWakesOnAgreementFrame: a Shutdown reaches thread 0 of a
// 2-thread SPMD adapter only, while thread 1 is parked in its idle wait with
// a 5 s PollInterval. Thread 0's agreement frame must wake thread 1 at once,
// so both ImplIsReady calls return well inside the poll interval.
func TestSiblingWakesOnAgreementFrame(t *testing.T) {
	fab := nexus.NewInproc()
	g := rts.NewChanGroup("wake-srv", 2)
	sibling := &recvSignal{Thread: g.Thread(1), got: make(chan struct{}, 1)}
	iorCh := make(chan core.IOR, 1)
	done := make(chan int, 2)
	for rank, th := range []rts.Thread{g.Thread(0), sibling} {
		go func() {
			p := poa.New(th, core.NewRouter(fab.NewEndpoint("s")), nil)
			p.PollInterval = 5
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
	// The sibling's first receive inside ImplIsReady is the first, empty
	// agreement frame: thread 0 has run a phase, and the sibling is on its
	// way into a 5 s idle wait.
	<-sibling.got
	b, err := newClient(fab, nil).Bind(ior, scaleIface())
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
}
