package poa

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// parityIface has one operation per way a call can end.
func parityIface() *core.InterfaceDef {
	return &core.InterfaceDef{Name: "parity", Ops: []core.Operation{
		{Name: "double", Result: typecode.TCLong, Params: []core.Param{
			core.NewParam("x", core.In, typecode.TCLong),
			core.NewParam("note", core.Out, typecode.TCString),
		}},
		{Name: "refuse", Params: []core.Param{core.NewParam("x", core.In, typecode.TCLong)}},
		{Name: "short", Result: typecode.TCLong, Params: []core.Param{core.NewParam("y", core.Out, typecode.TCLong)}},
		{Name: "peek", Params: []core.Param{
			core.NewParam("x", core.In, typecode.TCLong),
			core.NewParam("seen", core.Out, typecode.TCString),
		}},
		{Name: "post", Oneway: true, Params: []core.Param{core.NewParam("x", core.In, typecode.TCLong)}},
	}}
}

// parityServant answers parityIface and records, for every two-way call,
// whether its context carried the adapter: only the owning thread's does.
type parityServant struct {
	withPOA atomic.Bool
}

func (s *parityServant) Invoke(ctx *Context, op string, in []any) (any, []any, error) {
	if op != "post" {
		s.withPOA.Store(ctx.POA != nil)
	}
	switch op {
	case "double":
		return in[0].(int32) * 2, []any{"doubled"}, nil
	case "refuse":
		return nil, nil, fmt.Errorf("refused %d", in[0])
	case "short":
		return int32(1), nil, nil // the out value is missing
	case "peek":
		return nil, []any{fmt.Sprint(in[1])}, nil
	case "post":
		return nil, nil, errors.New("a oneway failure answers nobody")
	}
	return nil, nil, fmt.Errorf("no op %s", op)
}

// startParityServer serves parityIface as a single object, registered in
// table, on a one-thread adapter.
func startParityServer(t *testing.T, fab *nexus.Inproc, table *core.LocalTable) (core.IOR, *parityServant, func()) {
	t.Helper()
	srv := &parityServant{}
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := New(rts.NewChanGroup("parity-host", 1).Thread(0), core.NewRouter(fab.NewEndpoint("parity-srv")), table)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("parity-1", parityIface(), srv)
		if err != nil {
			t.Error(err)
			close(iorCh)
			return
		}
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior, ok := <-iorCh
	if !ok {
		t.FailNow()
	}
	return ior, srv, wg.Wait
}

// TestColocatedCallMatchesWire runs every row co-located, through a
// LocalTable, and over the inproc wire, blocking and non-blocking: all four
// must end in the same values or the same error text, because a co-located
// call takes the same dispatch step as a request.
func TestColocatedCallMatchesWire(t *testing.T) {
	fab := nexus.NewInproc()
	table := core.NewLocalTable()
	ior, srv, wait := startParityServer(t, fab, table)
	local, err := core.NewORB(core.NewRouter(fab.NewEndpoint("parity-local")), nil, table).Bind(ior, parityIface())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := core.NewORB(core.NewRouter(fab.NewEndpoint("parity-wire")), nil, nil).Bind(ior, parityIface())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := wire.Shutdown("done"); err != nil {
			t.Error(err)
		}
		wait()
	}()

	for _, row := range []struct {
		name, op string
		args     []any
		want     string // the outcome both paths must reach
	}{
		{"normal", "double", []any{int32(21), nil}, "[42 doubled] <nil>"},
		{"servant error", "refuse", []any{int32(7)}, "[] core: server exception: refused 7"},
		{"short outs", "short", []any{nil}, "[] core: server exception: servant returned 0 out values for 1 out parameters"},
		{"junk in an out slot", "peek", []any{int32(1), "junk"}, "[<nil>] <nil>"},
		{"oneway", "post", []any{int32(3)}, "[] <nil>"},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, path := range []struct {
				name    string
				b       *core.Binding
				withPOA bool
			}{{"co-located", local, false}, {"wire", wire, true}} {
				vals, err := path.b.Invoke(row.op, row.args)
				if got := fmt.Sprint(vals, " ", err); got != row.want {
					t.Errorf("%s Invoke: %s, want %s", path.name, got, row.want)
				}
				if row.op != "post" && srv.withPOA.Load() != path.withPOA {
					t.Errorf("%s call: servant context has POA = %v, want %v", path.name, !path.withPOA, path.withPOA)
				}
				cell, err := path.b.InvokeNB(row.op, row.args)
				if err != nil {
					t.Fatalf("%s InvokeNB: %v", path.name, err)
				}
				vals, err = cell.Values()
				if got := fmt.Sprint(vals, " ", err); got != row.want {
					t.Errorf("%s InvokeNB: %s, want %s", path.name, got, row.want)
				}
			}
		})
	}
}

// TestColocatedCallAllocs holds a co-located call to its ceiling: the
// caller's boxed argument, the one copy of the arguments the servant gets,
// its context and the servant's own result slice — no cell, no reply, no
// result slice of the runtime's for a void operation.
func TestColocatedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 4
	fab := nexus.NewInproc()
	table := core.NewLocalTable()
	iface := &core.InterfaceDef{Name: "echo", Ops: []core.Operation{{
		Name: "echo",
		Params: []core.Param{
			core.NewParam("x", core.In, typecode.SequenceOf(typecode.TCOctet, 0)),
			core.NewParam("y", core.Out, typecode.SequenceOf(typecode.TCOctet, 0)),
		},
	}}}
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := New(rts.NewChanGroup("alloc-host", 1).Thread(0), core.NewRouter(fab.NewEndpoint("alloc-srv")), table)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("echo-1", iface, ServantFunc(func(_ *Context, _ string, in []any) (any, []any, error) {
			return nil, []any{in[0]}, nil
		}))
		if err != nil {
			t.Error(err)
		}
		iorCh <- ior
		p.ImplIsReady()
	}()
	bind, err := core.NewORB(core.NewRouter(fab.NewEndpoint("alloc-cli")), nil, table).Bind(<-iorCh, iface)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		bind.Shutdown("done")
		wg.Wait()
	}()
	x := make([]byte, 1024)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := bind.Invoke("echo", []any{x, nil}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("co-located call: %.1f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("co-located call costs %.1f allocs, ceiling %d", allocs, ceiling)
	}
}

// TestColocatedCallsRaceWireDispatch makes co-located calls from several
// goroutines while the owning thread serves the same object over the wire:
// a co-located call runs on its caller's goroutine and may touch nothing the
// owning thread owns (run under -race).
func TestColocatedCallsRaceWireDispatch(t *testing.T) {
	const callers, calls = 4, 200
	fab := nexus.NewInproc()
	table := core.NewLocalTable()
	ior, _, wait := startParityServer(t, fab, table)
	wire, err := core.NewORB(core.NewRouter(fab.NewEndpoint("race-wire")), nil, nil).Bind(ior, parityIface())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint(fmt.Sprintf("race-local%d", c))), nil, table)
		b, err := orb.Bind(ior, parityIface())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < calls; i++ {
				if vals, err := b.Invoke("double", []any{i, nil}); err != nil || vals[0] != 2*i {
					t.Errorf("co-located double(%d) = %v, %v", i, vals, err)
					return
				}
			}
		}()
	}
	for i := int32(0); i < calls; i++ {
		if vals, err := wire.Invoke("double", []any{i, nil}); err != nil || vals[0] != 2*i {
			t.Fatalf("wire double(%d) = %v, %v", i, vals, err)
		}
	}
	wg.Wait()
	if err := wire.Shutdown("done"); err != nil {
		t.Error(err)
	}
	wait()
}
