package poa_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// The runtime recycles its per-call records (the decoded request and reply
// messages, with the servant's argument slots); the application's values —
// every result a caller received, every argument a servant was handed — alias
// the frames and stay valid for as long as they are kept. These tests keep
// all of them across thousands of recycled records and compare at the end.

func octetEchoIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "octets",
		Ops: []core.Operation{{
			Name: "echo",
			Params: []core.Param{
				core.NewParam("x", core.In, typecode.SequenceOf(typecode.TCOctet, 0)),
				core.NewParam("y", core.Out, typecode.SequenceOf(typecode.TCOctet, 0)),
			},
		}},
	}
}

// recordPayload is call i's 64-byte argument: its index, then bytes derived
// from it, so a payload names the call it belongs to.
func recordPayload(i int) []byte {
	b := make([]byte, 64)
	binary.BigEndian.PutUint32(b, uint32(i))
	for k := 4; k < len(b); k++ {
		b[k] = byte(i*31 + k)
	}
	return b
}

// keepingServant echoes its argument and keeps every argument value it was
// ever handed. With nested set it polls for further requests in the middle
// of each invocation — the paper's process_requests() — and checks that the
// dispatches it ran meanwhile did not disturb its own argument slots.
type keepingServant struct {
	nested bool

	mu       sync.Mutex
	kept     [][]byte
	disturbs int
}

func (s *keepingServant) Invoke(ctx *poa.Context, _ string, in []any) (any, []any, error) {
	x := in[0].([]byte)
	if s.nested && ctx.POA != nil {
		ctx.POA.ProcessRequests()
		if y, ok := in[0].([]byte); !ok || &y[0] != &x[0] {
			s.mu.Lock()
			s.disturbs++
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.kept = append(s.kept, x)
	s.mu.Unlock()
	return nil, []any{x}, nil
}

// serveObject runs a one-thread server with one single object on ep (workers
// > 0 adds a dispatch pool) and returns the object's reference and a function
// that waits for ImplIsReady to return.
func serveObject(t *testing.T, ep nexus.Endpoint, iface *core.InterfaceDef, s poa.Servant, workers int) (core.IOR, func()) {
	t.Helper()
	iorCh := make(chan core.IOR, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := poa.New(rts.NewChanGroup("rec-srv", 1).Thread(0), core.NewRouter(ep), nil)
		p.PollInterval = 50e-6
		ior, err := p.RegisterSingle("rec-1", iface, s)
		if err != nil {
			t.Error(err)
			close(iorCh)
			return
		}
		p.SetDispatchAuto(workers, workers)
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior, ok := <-iorCh
	if !ok {
		t.FailNow()
	}
	return ior, func() { <-done }
}

func TestRecordRecyclingKeepsValues(t *testing.T) {
	const blocking, nonBlocking, window = 1000, 1000, 32
	lanes := []struct {
		name    string
		workers int
		nested  bool
		tcp     bool
	}{
		{name: "inline"},
		{name: "inline-tcp", tcp: true},
		{name: "pool4", workers: 4},
		{name: "nested", nested: true},
	}
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			var cliEP, srvEP nexus.Endpoint
			if lane.tcp {
				var err error
				if srvEP, err = nexus.NewTCPEndpoint(""); err != nil {
					t.Fatal(err)
				}
				if cliEP, err = nexus.NewTCPEndpoint(""); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cliEP.Close(); srvEP.Close() })
			} else {
				fab := nexus.NewInproc()
				cliEP, srvEP = fab.NewEndpoint("client"), fab.NewEndpoint("server")
			}
			srv := &keepingServant{nested: lane.nested}
			ior, wait := serveObject(t, srvEP, octetEchoIface(), srv, lane.workers)
			orb := core.NewORB(core.NewRouter(cliEP), nil, nil)
			b, err := orb.Bind(ior, octetEchoIface())
			if err != nil {
				t.Fatal(err)
			}

			results := make([][]byte, 0, blocking+nonBlocking)
			for i := 0; i < blocking; i++ {
				vals, err := b.Invoke("echo", []any{recordPayload(i), nil})
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				results = append(results, vals[0].([]byte))
			}
			// Non-blocking calls go out a window at a time, so the nested lane
			// finds requests queued behind the one it is serving and the pool
			// lane has several records in flight at once.
			cells := make([]*future.Cell, 0, nonBlocking)
			for i := 0; i < nonBlocking; i += window {
				for k := i; k < i+window && k < nonBlocking; k++ {
					c, err := b.InvokeNB("echo", []any{recordPayload(blocking + k), nil})
					if err != nil {
						t.Fatalf("call %d: %v", blocking+k, err)
					}
					cells = append(cells, c)
				}
				if err := cells[len(cells)-1].Wait(); err != nil {
					t.Fatalf("window at %d: %v", blocking+i, err)
				}
			}
			// Cells are the application's too: read every one only now, long
			// after the records that resolved them were recycled.
			for k, c := range cells {
				vals, err := c.Values()
				if err != nil {
					t.Fatalf("call %d: %v", blocking+k, err)
				}
				results = append(results, vals[0].([]byte))
			}
			if err := b.Shutdown("done"); err != nil {
				t.Fatal(err)
			}
			wait()

			for i, got := range results {
				if !bytes.Equal(got, recordPayload(i)) {
					t.Fatalf("result %d was overwritten after it was returned: % x", i, got[:8])
				}
			}
			if len(srv.kept) != len(results) {
				t.Fatalf("servant saw %d calls, want %d", len(srv.kept), len(results))
			}
			seen := make([]bool, len(results))
			for _, arg := range srv.kept {
				i := int(binary.BigEndian.Uint32(arg))
				if i >= len(seen) || seen[i] || !bytes.Equal(arg, recordPayload(i)) {
					t.Fatalf("kept argument of call %d was overwritten after its dispatch: % x", i, arg[:8])
				}
				seen[i] = true
			}
			if srv.disturbs != 0 {
				t.Errorf("%d invocations found their argument slots changed by a nested dispatch", srv.disturbs)
			}
		})
	}
}

// TestServantArgSlotsBeyondInline: an operation with more parameters than a
// request record holds inline still gets one slot per parameter.
func TestServantArgSlotsBeyondInline(t *testing.T) {
	const params = 7
	iface := &core.InterfaceDef{Name: "wide", Ops: []core.Operation{{Name: "sum", Result: typecode.TCLong}}}
	for i := 0; i < params; i++ {
		iface.Ops[0].Params = append(iface.Ops[0].Params, core.NewParam(fmt.Sprintf("a%d", i), core.In, typecode.TCLong))
	}
	fab := nexus.NewInproc()
	ior, wait := serveObject(t, fab.NewEndpoint("server"), iface, poa.ServantFunc(
		func(_ *poa.Context, _ string, in []any) (any, []any, error) {
			if len(in) != params {
				return nil, nil, fmt.Errorf("got %d argument slots, want %d", len(in), params)
			}
			var sum int32
			for _, v := range in {
				sum += v.(int32)
			}
			return sum, nil, nil
		}), 0)
	b, err := newClient(fab, nil).Bind(ior, iface)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		args := make([]any, params)
		var want int32
		for i := range args {
			args[i] = int32(round*10 + i)
			want += int32(round*10 + i)
		}
		vals, err := b.Invoke("sum", args)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] != want {
			t.Fatalf("round %d: sum = %v, want %d", round, vals[0], want)
		}
	}
	if err := b.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	wait()
}
