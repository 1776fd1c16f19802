package poa_test

import (
	"bytes"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// The other half of the frame-ownership rule (DESIGN.md §7): a frame the
// transport does not want back — larger than it pools, or from a fabric that
// does not pool — is still decoded zero-copy, on both sides of a call.

// tapEP records every frame its owner receives.
type tapEP struct {
	nexus.Endpoint

	mu     sync.Mutex
	frames []nexus.Frame
}

func (e *tapEP) keep(fr nexus.Frame) {
	e.mu.Lock()
	e.frames = append(e.frames, fr)
	e.mu.Unlock()
}

func (e *tapEP) Recv() (nexus.Frame, error) {
	fr, err := e.Endpoint.Recv()
	if err == nil {
		e.keep(fr)
	}
	return fr, err
}

func (e *tapEP) Poll() (nexus.Frame, bool, error) {
	fr, ok, err := e.Endpoint.Poll()
	if ok {
		e.keep(fr)
	}
	return fr, ok, err
}

func (e *tapEP) SetRecvNotify(fn func()) bool {
	rn, ok := e.Endpoint.(nexus.RecvNotifier)
	return ok && rn.SetRecvNotify(fn)
}

func (e *tapEP) ConcurrentSendSafe() bool {
	cs, ok := e.Endpoint.(nexus.ConcurrentSender)
	return ok && cs.ConcurrentSendSafe()
}

// frameOf returns the received frame whose bytes v lies in.
func (e *tapEP) frameOf(v []byte) (nexus.Frame, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, fr := range e.frames {
		for i := 0; i+len(v) <= len(fr.Data); i++ {
			if &fr.Data[i] == &v[0] {
				return fr, true
			}
		}
	}
	return nexus.Frame{}, false
}

// keptArg is a servant that echoes its octet argument and keeps the last
// one it was handed.
type keptArg struct {
	mu sync.Mutex
	x  []byte
}

func (s *keptArg) Invoke(_ *poa.Context, _ string, in []any) (any, []any, error) {
	s.mu.Lock()
	s.x = in[0].([]byte)
	s.mu.Unlock()
	return nil, []any{in[0]}, nil
}

func (s *keptArg) last() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.x
}

func TestLargeFrameStillBorrows(t *testing.T) {
	for _, lane := range []string{"inproc", "tcp"} {
		t.Run(lane, func(t *testing.T) {
			var cli, srv *tapEP
			if lane == "tcp" {
				s, err := nexus.NewTCPEndpoint("")
				if err != nil {
					t.Fatal(err)
				}
				c, err := nexus.NewTCPEndpoint("")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close(); s.Close() })
				cli, srv = &tapEP{Endpoint: c}, &tapEP{Endpoint: s}
			} else {
				fab := nexus.NewInproc()
				cli, srv = &tapEP{Endpoint: fab.NewEndpoint("client")}, &tapEP{Endpoint: fab.NewEndpoint("server")}
			}
			servant := &keptArg{}
			ior, wait := serveObject(t, srv, octetEchoIface(), servant, 0)
			b, err := core.NewORB(core.NewRouter(cli), nil, nil).Bind(ior, octetEchoIface())
			if err != nil {
				t.Fatal(err)
			}
			call := func(n int) (arg, result []byte) {
				t.Helper()
				want := recordPayload(n, n)
				vals, err := b.Invoke("echo", []any{want, nil})
				if err != nil {
					t.Fatal(err)
				}
				arg, result = servant.last(), vals[0].([]byte)
				if !bytes.Equal(arg, want) || !bytes.Equal(result, want) {
					t.Fatalf("%d-byte echo: wrong bytes", n)
				}
				return arg, result
			}

			// 64 KiB: the argument and the result alias their frames, and
			// the frames are not the pool's.
			arg, result := call(64 << 10)
			for _, side := range []struct {
				name string
				ep   *tapEP
				v    []byte
			}{{"servant argument", srv, arg}, {"client result", cli, result}} {
				fr, ok := side.ep.frameOf(side.v)
				if !ok {
					t.Errorf("64 KiB %s was copied out of its frame", side.name)
				} else if fr.Pooled() {
					t.Errorf("64 KiB %s aliases a frame that is pooled", side.name)
				}
			}
			// 64 B on the same binding: the frames are pooled, so the values
			// are copies.
			arg, result = call(64)
			if _, ok := srv.frameOf(arg); ok {
				t.Error("64 B servant argument aliases its (pooled) frame")
			}
			if _, ok := cli.frameOf(result); ok {
				t.Error("64 B client result aliases its (pooled) frame")
			}
			if err := b.Shutdown("done"); err != nil {
				t.Fatal(err)
			}
			wait()
			for _, ep := range []*tapEP{cli, srv} {
				for _, fr := range ep.frames {
					if small := len(fr.Data) <= 4<<10; fr.Pooled() != small {
						t.Errorf("%d-byte frame: Pooled() = %v", len(fr.Data), fr.Pooled())
					}
				}
			}
		})
	}
}

func TestUnpooledFabricStillBorrows(t *testing.T) {
	// The simulated fabric hands the sender's buffer to the receiver as it
	// is: nothing is pooled, and a 64 B value aliases its frame.
	t.Run("sim", func(t *testing.T) {
		sim := vtime.NewSim()
		fab := nexus.NewSimFabric(sim)
		host := simnet.PaperTestbed().Host("onyx")
		iorCh := vtime.NewChan(sim, "ior")
		servant := &keptArg{}
		var cli, srv *tapEP
		var result []byte
		rts.NewSimGroup(sim, host, 1).Spawn("server", func(th rts.Thread) {
			proc := th.(*rts.SimThread).Proc()
			srv = &tapEP{Endpoint: fab.NewEndpoint("srv", proc, host)}
			p := poa.New(th, core.NewRouter(srv), nil)
			ior, err := p.RegisterSingle("rec-1", octetEchoIface(), servant)
			if err != nil {
				panic(err)
			}
			proc.Send(iorCh, ior, 0)
			p.ImplIsReady()
		})
		rts.NewSimGroup(sim, host, 1).Spawn("client", func(th rts.Thread) {
			proc := th.(*rts.SimThread).Proc()
			cli = &tapEP{Endpoint: fab.NewEndpoint("cli", proc, host)}
			b, err := core.NewORB(core.NewRouter(cli), th, nil).Bind(proc.Recv(iorCh).(core.IOR), octetEchoIface())
			if err != nil {
				panic(err)
			}
			vals, err := b.Invoke("echo", []any{recordPayload(7, 64), nil})
			if err != nil {
				panic(err)
			}
			result = vals[0].([]byte)
			b.Shutdown("done")
		})
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if want := recordPayload(7, 64); !bytes.Equal(result, want) || !bytes.Equal(servant.last(), want) {
			t.Fatal("echo over the simulated fabric: wrong bytes")
		}
		if fr, ok := srv.frameOf(servant.last()); !ok || fr.Pooled() {
			t.Errorf("servant argument: aliases a frame = %v, pooled = %v; want an unpooled frame borrowed", ok, fr.Pooled())
		}
		if fr, ok := cli.frameOf(result); !ok || fr.Pooled() {
			t.Errorf("client result: aliases a frame = %v, pooled = %v; want an unpooled frame borrowed", ok, fr.Pooled())
		}
	})

	// A fault injector that duplicates a frame sends its flattened copy
	// twice through the fabric underneath, which makes each delivery a
	// buffer of its own: releasing one takes nothing from the other.
	t.Run("dup", func(t *testing.T) {
		fab := nexus.NewInproc()
		a := nexus.NewFaultInjector(3, nexus.FaultPlan{Dup: 1}).Wrap(fab.NewEndpoint("a"))
		b := fab.NewEndpoint("b")
		first, second := recordPayload(1, 64), recordPayload(2, 64)
		if err := a.Send(b.Addr(), first); err != nil {
			t.Fatal(err)
		}
		f1, _ := b.Recv()
		f2, _ := b.Recv()
		if &f1.Data[0] == &f2.Data[0] {
			t.Fatal("both copies of a duplicated frame were delivered in one buffer")
		}
		f1.Release()
		if err := a.Send(b.Addr(), second); err != nil { // free to land in f1's buffer
			t.Fatal(err)
		}
		f3, _ := b.Recv()
		f4, _ := b.Recv()
		if !bytes.Equal(f2.Data, first) || !bytes.Equal(f3.Data, second) || !bytes.Equal(f4.Data, second) {
			t.Fatal("releasing one copy of a duplicated frame disturbed another frame")
		}
	})

	// And with calls on top: every request is served twice and every reply
	// arrives twice, the first copy is recycled, and what callers and
	// servant keep stays what it was.
	t.Run("dup-calls", func(t *testing.T) {
		const calls = 300
		fab := nexus.NewInproc()
		fi := nexus.NewFaultInjector(5, nexus.FaultPlan{Dup: 1})
		srv := &keepingServant{}
		ior, wait := serveObject(t, fi.Wrap(fab.NewEndpoint("server")), mixedEchoIface(), srv, 0)
		b, err := core.NewORB(core.NewRouter(fi.Wrap(fab.NewEndpoint("client"))), nil, nil).Bind(ior, mixedEchoIface())
		if err != nil {
			t.Fatal(err)
		}
		results := make([]mixedValues, calls)
		for i := range results {
			vals, err := b.Invoke("echo", recordValues(i).args())
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			results[i] = mixedFrom(vals)
		}
		if err := b.Shutdown("done"); err != nil {
			t.Fatal(err)
		}
		wait()
		for i, got := range results {
			if !got.equal(recordValues(i)) {
				t.Fatalf("result %d was overwritten after it was returned", i)
			}
		}
		if len(srv.kept) != 2*calls {
			t.Fatalf("servant saw %d dispatches, want every request twice (%d)", len(srv.kept), 2*calls)
		}
		for k, arg := range srv.kept {
			if !arg.equal(recordValues(k / 2)) {
				t.Fatalf("kept arguments of dispatch %d were overwritten", k)
			}
		}
	})
}
