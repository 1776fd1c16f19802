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
// messages, with the servant's argument slots) and the small frames they were
// decoded from; the application's values — every result a caller received,
// every argument a servant was handed — are copies of what a small frame
// carried or alias a large one, and stay valid for as long as they are kept.
// These tests keep all of them across thousands of recycled records and
// frames and compare at the end. Under the race detector a recycled frame is
// overwritten with 0xDB first (nexus' poison), so a value that still aliased
// one would not survive to the comparison.

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

// mixedEchoIface echoes an octet sequence, a string and a scalar: the value
// kinds that alias a borrowed frame, that are always copied, and that are
// boxed.
func mixedEchoIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "mixed",
		Ops: []core.Operation{{
			Name: "echo",
			Params: []core.Param{
				core.NewParam("x", core.InOut, typecode.SequenceOf(typecode.TCOctet, 0)),
				core.NewParam("s", core.InOut, typecode.TCString),
				core.NewParam("n", core.InOut, typecode.TCLong),
			},
		}},
	}
}

// recordPayload is call i's n-byte octet argument: its index, then bytes
// derived from it, so a payload names the call it belongs to.
func recordPayload(i, n int) []byte {
	b := make([]byte, n)
	binary.BigEndian.PutUint32(b, uint32(i))
	for k := 4; k < len(b); k++ {
		b[k] = byte(i*31 + k)
	}
	return b
}

// mixedValues is what call i sends and gets back, and what a servant keeps.
type mixedValues struct {
	x []byte
	s string
	n int32
}

func recordValues(i int) mixedValues {
	return mixedValues{x: recordPayload(i, 64), s: fmt.Sprintf("call %d of the recycling test", i), n: int32(i * 7919)}
}

func (v mixedValues) args() []any { return []any{v.x, v.s, v.n} }

func (v mixedValues) equal(w mixedValues) bool {
	return bytes.Equal(v.x, w.x) && v.s == w.s && v.n == w.n
}

func mixedFrom(vals []any) mixedValues {
	return mixedValues{x: vals[0].([]byte), s: vals[1].(string), n: vals[2].(int32)}
}

// keepingServant echoes its arguments and keeps every argument value it was
// ever handed. With nested set it polls for further requests in the middle
// of each invocation — the paper's process_requests() — and checks that the
// dispatches it ran meanwhile did not disturb its own argument slots.
type keepingServant struct {
	nested bool

	mu       sync.Mutex
	kept     []mixedValues
	disturbs int
}

func (s *keepingServant) Invoke(ctx *poa.Context, _ string, in []any) (any, []any, error) {
	v := mixedFrom(in)
	if s.nested && ctx.POA != nil {
		ctx.POA.ProcessRequests()
		if y, ok := in[0].([]byte); !ok || &y[0] != &v.x[0] || in[1] != v.s || in[2] != v.n {
			s.mu.Lock()
			s.disturbs++
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.kept = append(s.kept, v)
	s.mu.Unlock()
	return nil, v.args(), nil
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
			ior, wait := serveObject(t, srvEP, mixedEchoIface(), srv, lane.workers)
			orb := core.NewORB(core.NewRouter(cliEP), nil, nil)
			b, err := orb.Bind(ior, mixedEchoIface())
			if err != nil {
				t.Fatal(err)
			}

			results := make([]mixedValues, 0, blocking+nonBlocking)
			for i := 0; i < blocking; i++ {
				vals, err := b.Invoke("echo", recordValues(i).args())
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				results = append(results, mixedFrom(vals))
			}
			// Non-blocking calls go out a window at a time, so the nested lane
			// finds requests queued behind the one it is serving and the pool
			// lane has several records in flight at once.
			cells := make([]*future.Cell, 0, nonBlocking)
			for i := 0; i < nonBlocking; i += window {
				for k := i; k < i+window && k < nonBlocking; k++ {
					c, err := b.InvokeNB("echo", recordValues(blocking+k).args())
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
				results = append(results, mixedFrom(vals))
			}
			if err := b.Shutdown("done"); err != nil {
				t.Fatal(err)
			}
			wait()

			for i, got := range results {
				if !got.equal(recordValues(i)) {
					t.Fatalf("result %d was overwritten after it was returned: % x %q %d", i, got.x[:8], got.s, got.n)
				}
			}
			if len(srv.kept) != len(results) {
				t.Fatalf("servant saw %d calls, want %d", len(srv.kept), len(results))
			}
			seen := make([]bool, len(results))
			for _, arg := range srv.kept {
				i := int(binary.BigEndian.Uint32(arg.x))
				if i >= len(seen) || seen[i] || !arg.equal(recordValues(i)) {
					t.Fatalf("kept arguments of call %d were overwritten after its dispatch: % x %q %d", i, arg.x[:8], arg.s, arg.n)
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

// TestPoolWorkerReusesContext: a pool worker hands every request it serves
// the same Context, refilled — a context escapes through the Servant
// interface, so one per request would be a heap allocation per call — and a
// pooled servant sees no POA in it.
func TestPoolWorkerReusesContext(t *testing.T) {
	const workers, calls, window = 4, 400, 32
	var mu sync.Mutex
	seen := map[*poa.Context]int{}
	withPOA := 0
	fab := nexus.NewInproc()
	ior, wait := serveObject(t, fab.NewEndpoint("server"), octetEchoIface(), poa.ServantFunc(
		func(ctx *poa.Context, _ string, in []any) (any, []any, error) {
			mu.Lock()
			seen[ctx]++
			if ctx.POA != nil || ctx.Thread == nil || ctx.Oneway {
				withPOA++
			}
			mu.Unlock()
			return nil, []any{in[0]}, nil
		}), workers)
	b, err := newClient(fab, nil).Bind(ior, octetEchoIface())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i += window {
		cells := make([]*future.Cell, window)
		for k := range cells {
			if cells[k], err = b.InvokeNB("echo", []any{recordPayload(i+k, 64), nil}); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range cells {
			if vals, err := c.Values(); err != nil || !bytes.Equal(vals[0].([]byte), recordPayload(i+k, 64)) {
				t.Fatalf("call %d: %v", i+k, err)
			}
		}
	}
	if err := b.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	wait()
	if len(seen) > workers {
		t.Errorf("%d calls on %d workers were handed %d distinct contexts", calls, workers, len(seen))
	}
	if withPOA != 0 {
		t.Errorf("%d pooled invocations saw a context that was not theirs (POA set, Thread unset or Oneway)", withPOA)
	}
}
