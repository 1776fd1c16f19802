package poa_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pardis/internal/future"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// echoIface is a single-object interface: string/long echo + failure op.
func echoIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "echo",
		Ops: []core.Operation{
			{
				Name: "shout",
				Params: []core.Param{
					core.NewParam("s", core.In, typecode.TCString),
					core.NewParam("loud", core.Out, typecode.TCString),
				},
				Result: typecode.TCLong,
			},
			{
				Name:   "fail",
				Params: []core.Param{core.NewParam("why", core.In, typecode.TCString)},
			},
			{
				Name:   "fire",
				Params: []core.Param{core.NewParam("s", core.In, typecode.TCString)},
				Oneway: true,
			},
		},
	}
}

type echoServant struct {
	fired []string
}

func (e *echoServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	switch op {
	case "shout":
		s := in[0].(string)
		return int32(len(s)), []any{strings.ToUpper(s)}, nil
	case "fail":
		return nil, nil, errors.New(in[0].(string))
	case "fire":
		e.fired = append(e.fired, in[0].(string))
		return nil, nil, nil
	}
	return nil, nil, fmt.Errorf("bad op %s", op)
}

// scaleIface is the SPMD interface: Y = k * X over distributed sequences.
func scaleIface() *core.InterfaceDef {
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
	return &core.InterfaceDef{
		Name: "scaler",
		Ops: []core.Operation{
			{
				Name: "scale",
				Params: []core.Param{
					core.NewParam("k", core.In, typecode.TCDouble),
					core.NewParam("x", core.In, dv),
					core.NewParam("y", core.Out, dv),
				},
				Result: typecode.TCDouble, // sum of inputs, to check reduction
			},
			{
				Name: "size",
				Params: []core.Param{
					core.NewParam("n", core.Out, typecode.TCLong),
				},
			},
		},
	}
}

// scaleServant scales its local portion and returns the global input sum.
type scaleServant struct{}

func (scaleServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	th := ctx.Thread
	switch op {
	case "size":
		return nil, []any{int32(th.Size())}, nil
	case "scale":
		k := in[0].(float64)
		x := dseq.AsFloat64(in[1].(dseq.Distributed))
		y := dseq.NewFromLayout[float64](th, x.DLayout(), dseq.Float64Codec{})
		localSum := 0.0
		for i, v := range x.Local() {
			y.Local()[i] = k * v
			localSum += v
		}
		// Global reduction through the run-time system.
		parts := rts.Gather(th, 0, f64bytes(localSum))
		total := 0.0
		if th.Rank() == 0 {
			for _, p := range parts {
				total += bytesF64(p)
			}
		}
		total = bytesF64(rts.Bcast(th, 0, f64bytes(total)))
		return total, []any{y}, nil
	}
	return nil, nil, fmt.Errorf("bad op %s", op)
}

func f64bytes(v float64) []byte {
	var b [8]byte
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	return b[:]
}

func bytesF64(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}

// startSingleServer runs a one-thread server with an echo object and
// returns its IOR and a stop-wait function.
func startSingleServer(t *testing.T, fab *nexus.Inproc, table *core.LocalTable) (core.IOR, *echoServant, func()) {
	t.Helper()
	g := rts.NewChanGroup("server-host", 1)
	iorCh := make(chan core.IOR, 1)
	srv := &echoServant{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("server"))
		p := poa.New(th, r, table)
		p.PollInterval = 50e-6
		ior, err := p.RegisterSingle("echo-1", echoIface(), srv)
		if err != nil {
			t.Error(err)
			return
		}
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior := <-iorCh
	return ior, srv, wg.Wait
}

func newClient(fab *nexus.Inproc, table *core.LocalTable) *core.ORB {
	return core.NewORB(core.NewRouter(fab.NewEndpoint("client")), nil, table)
}

func TestSingleObjectBlockingInvocation(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startSingleServer(t, fab, nil)
	orb := newClient(fab, nil)
	b, err := orb.Bind(ior, echoIface())
	if err != nil {
		t.Fatal(err)
	}
	vals, err := b.Invoke("shout", []any{"pardis", nil})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != int32(6) || vals[1] != "PARDIS" {
		t.Fatalf("vals = %v", vals)
	}
	if err := b.Shutdown("test done"); err != nil {
		t.Fatal(err)
	}
	wait()
}

func TestSingleObjectNonBlockingAndOrdering(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startSingleServer(t, fab, nil)
	orb := newClient(fab, nil)
	b, _ := orb.Bind(ior, echoIface())
	var cells []*future.Cell
	for i := 0; i < 10; i++ {
		cell, err := b.InvokeNB("shout", []any{fmt.Sprintf("msg-%d", i), nil})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell)
	}
	// Futures of all ten requests resolve, in order, with the right values.
	for i, c := range cells {
		vals, err := c.Values()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if vals[1] != fmt.Sprintf("MSG-%d", i) {
			t.Fatalf("request %d resolved to %v", i, vals[1])
		}
	}
	b.Shutdown("done")
	wait()
}

func TestServerException(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startSingleServer(t, fab, nil)
	orb := newClient(fab, nil)
	b, _ := orb.Bind(ior, echoIface())
	_, err := b.Invoke("fail", []any{"deliberate"})
	if err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("err = %v", err)
	}
	// Server survives exceptions.
	vals, err := b.Invoke("shout", []any{"ok", nil})
	if err != nil || vals[1] != "OK" {
		t.Fatalf("post-exception call: %v %v", vals, err)
	}
	b.Shutdown("done")
	wait()
}

func TestLocate(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startSingleServer(t, fab, nil)
	orb := newClient(fab, nil)
	b, _ := orb.Bind(ior, echoIface())
	found, err := b.Locate()
	if err != nil || !found {
		t.Fatalf("locate = %v, %v", found, err)
	}
	bogus := ior
	bogus.Key = "missing"
	b2, _ := orb.Bind(bogus, echoIface())
	found, err = b2.Locate()
	if err != nil || found {
		t.Fatalf("bogus locate = %v, %v", found, err)
	}
	b.Shutdown("done")
	wait()
}

func TestOnewayFire(t *testing.T) {
	fab := nexus.NewInproc()
	ior, srv, wait := startSingleServer(t, fab, nil)
	orb := newClient(fab, nil)
	b, _ := orb.Bind(ior, echoIface())
	cell, err := b.InvokeNB("fire", []any{"async"})
	if err != nil {
		t.Fatal(err)
	}
	if !cell.Resolved() {
		t.Fatal("oneway cell must resolve at send")
	}
	// Force a round trip so the oneway is processed before shutdown.
	if _, err := b.Invoke("shout", []any{"sync", nil}); err != nil {
		t.Fatal(err)
	}
	b.Shutdown("done")
	wait()
	if len(srv.fired) != 1 || srv.fired[0] != "async" {
		t.Fatalf("fired = %v", srv.fired)
	}
}

func TestLocalBypass(t *testing.T) {
	fab := nexus.NewInproc()
	table := core.NewLocalTable()
	ior, _, wait := startSingleServer(t, fab, table)
	orb := newClient(fab, table)
	b, _ := orb.Bind(ior, echoIface())
	// The direct call runs on the client goroutine — no server poll needed.
	vals, err := b.Invoke("shout", []any{"local", nil})
	if err != nil || vals[0] != int32(5) || vals[1] != "LOCAL" {
		t.Fatalf("bypass vals = %v, %v", vals, err)
	}
	b.Shutdown("done")
	wait()
}

// runSPMDPair launches an S-thread server with the scale object and a
// C-thread client running clientBody, on the chan backend.
func runSPMDPair(t *testing.T, S, C int, clientBody func(th rts.Thread, b *core.Binding)) {
	t.Helper()
	fab := nexus.NewInproc()
	serverG := rts.NewChanGroup("serverhost", S)
	clientG := rts.NewChanGroup("clienthost", C)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverG.Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("srv%d", th.Rank())))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			ior, err := p.RegisterSPMD("scaler-1", scaleIface(), scaleServant{})
			if err != nil {
				t.Error(err)
				return
			}
			if th.Rank() == 0 {
				iorCh <- ior
			}
			p.ImplIsReady()
		})
	}()
	ior := <-iorCh
	clientG.Run(func(th rts.Thread) {
		r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("cli%d", th.Rank())))
		orb := core.NewORB(r, th, nil)
		b, err := orb.SPMDBind(ior, scaleIface())
		if err != nil {
			t.Error(err)
			return
		}
		clientBody(th, b)
		th.Barrier()
		if th.Rank() == 0 {
			b.Shutdown("test done")
		}
	})
	wg.Wait()
}

func TestSPMDDistributedRoundTrip(t *testing.T) {
	const N = 103
	for _, cfg := range []struct{ S, C int }{{4, 2}, {2, 4}, {3, 3}, {1, 2}, {4, 1}} {
		t.Run(fmt.Sprintf("S%dC%d", cfg.S, cfg.C), func(t *testing.T) {
			runSPMDPair(t, cfg.S, cfg.C, func(th rts.Thread, b *core.Binding) {
				x := dseq.New[float64](th, N, dist.BlockTemplate(), dseq.Float64Codec{})
				for loc := range x.Local() {
					x.Local()[loc] = float64(x.Layout().GlobalIndex(th.Rank(), loc))
				}
				y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
				vals, err := b.Invoke("scale", []any{3.0, x, y})
				if err != nil {
					panic(err)
				}
				wantSum := float64(N*(N-1)) / 2
				if vals[0] != wantSum {
					panic(fmt.Sprintf("sum = %v, want %v", vals[0], wantSum))
				}
				got := vals[1].(dseq.Distributed)
				yd := dseq.AsFloat64(got)
				if yd.GlobalLen() != N {
					panic(fmt.Sprintf("out len %d", yd.GlobalLen()))
				}
				for loc, v := range yd.Local() {
					g := yd.DLayout().GlobalIndex(th.Rank(), loc)
					if v != 3*float64(g) {
						panic(fmt.Sprintf("y[%d] = %v, want %v", g, v, 3*float64(g)))
					}
				}
			})
		})
	}
}

func TestSPMDOutDistributionRequest(t *testing.T) {
	const N = 64
	runSPMDPair(t, 3, 2, func(th rts.Thread, b *core.Binding) {
		// Ask for the result concentrated on client thread 0 — the
		// paper's "concentrated on one processor" case.
		if err := b.SetOutDist("scale", 2, dist.CollapsedOn(0)); err != nil {
			panic(err)
		}
		x := dseq.New[float64](th, N, dist.BlockTemplate(), dseq.Float64Codec{})
		for loc := range x.Local() {
			x.Local()[loc] = 1
		}
		y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		vals, err := b.Invoke("scale", []any{2.0, x, y})
		if err != nil {
			panic(err)
		}
		yd := dseq.AsFloat64(vals[1].(dseq.Distributed))
		if th.Rank() == 0 {
			if len(yd.Local()) != N {
				panic(fmt.Sprintf("rank 0 has %d of %d elements", len(yd.Local()), N))
			}
			for _, v := range yd.Local() {
				if v != 2 {
					panic("bad element value")
				}
			}
		} else if len(yd.Local()) != 0 {
			panic("non-root received elements of a collapsed out argument")
		}
	})
}

func TestSingleClientOnSPMDObject(t *testing.T) {
	// A non-collective client invoking an operation without distributed
	// arguments on a 3-thread SPMD object.
	fab := nexus.NewInproc()
	serverG := rts.NewChanGroup("srv", 3)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverG.Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint("s"))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			ior, _ := p.RegisterSPMD("scaler-2", scaleIface(), scaleServant{})
			if th.Rank() == 0 {
				iorCh <- ior
			}
			p.ImplIsReady()
		})
	}()
	ior := <-iorCh
	orb := newClient(fab, nil)
	b, err := orb.SPMDBind(ior, scaleIface()) // collective bind of a 1-thread client
	if err != nil {
		t.Fatal(err)
	}
	vals, err := b.Invoke("size", []any{nil})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != int32(3) {
		t.Fatalf("size = %v", vals[0])
	}
	b.Shutdown("done")
	wg.Wait()
}
