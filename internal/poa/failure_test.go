package poa_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// faultyIface has ops that misbehave in interesting ways.
func faultyIface() *core.InterfaceDef {
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
	return &core.InterfaceDef{
		Name: "faulty",
		Ops: []core.Operation{
			{Name: "boom", Params: []core.Param{core.NewParam("x", core.In, dv)}},
			{Name: "wrongouts", Result: typecode.TCLong,
				Params: []core.Param{core.NewParam("y", core.Out, typecode.TCLong)}},
			{Name: "badtype", Result: typecode.TCLong},
			{Name: "slow", Params: []core.Param{core.NewParam("ms", core.In, typecode.TCLong)}},
			{Name: "seq", Result: typecode.TCLong},
		},
	}
}

type faultyServant struct {
	mu      sync.Mutex
	seen    []string
	counter int32
}

func (f *faultyServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	f.mu.Lock()
	f.seen = append(f.seen, op)
	f.mu.Unlock()
	switch op {
	case "boom":
		return nil, nil, errors.New("kaboom")
	case "wrongouts":
		return int32(1), nil, nil // missing the out value
	case "badtype":
		return "not an int32", nil, nil
	case "slow":
		return nil, nil, nil
	case "seq":
		// The instance is shared by every server thread; only rank 0's
		// return value reaches the client, so only rank 0 counts — siblings
		// racing through the same decisions must not advance its sequence.
		if ctx.Thread.Rank() != 0 {
			return int32(0), nil, nil
		}
		f.mu.Lock()
		f.counter++
		v := f.counter
		f.mu.Unlock()
		return v, nil, nil
	}
	return nil, nil, fmt.Errorf("bad op")
}

func startFaulty(t *testing.T, fab *nexus.Inproc, threads int) (core.IOR, *faultyServant, func()) {
	t.Helper()
	srv := &faultyServant{}
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("faulty-host", threads).Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("flt%d", th.Rank())))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			ior, err := p.RegisterSPMD("faulty-1", faultyIface(), srv)
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
	return ior, srv, wg.Wait
}

func TestSPMDExceptionReachesAllClientThreads(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 3)
	errs := make([]error, 2)
	rts.NewChanGroup("cli", 2).Run(func(th rts.Thread) {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint(fmt.Sprintf("c%d", th.Rank()))), th, nil)
		b, _ := orb.SPMDBind(ior, faultyIface())
		x := dseq.New[float64](th, 10, dist.BlockTemplate(), dseq.Float64Codec{})
		_, err := b.Invoke("boom", []any{x})
		errs[th.Rank()] = err
		th.Barrier()
		if th.Rank() == 0 {
			b.Shutdown("done")
		}
	})
	wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("thread %d err = %v", i, err)
		}
	}
}

func TestServantReturningWrongOutCountIsException(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 1)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("c")), nil, nil)
	b, _ := orb.SPMDBind(ior, faultyIface())
	_, err := b.Invoke("wrongouts", []any{nil})
	if err == nil || !strings.Contains(err.Error(), "out values") {
		t.Fatalf("err = %v", err)
	}
	// Server survives.
	if vals, err := b.Invoke("seq", nil); err != nil || vals[0] != int32(1) {
		t.Fatalf("post-failure call: %v %v", vals, err)
	}
	b.Shutdown("done")
	wait()
}

func TestServantReturningWrongTypeIsException(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 1)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("c")), nil, nil)
	b, _ := orb.SPMDBind(ior, faultyIface())
	if _, err := b.Invoke("badtype", nil); err == nil {
		t.Fatal("want marshal exception")
	}
	b.Shutdown("done")
	wait()
}

func TestPerBindingOrderingGuarantee(t *testing.T) {
	// The paper: "PARDIS guarantees that sequence of invocation is
	// preserved for single and SPMD clients." Fire many non-blocking
	// invocations and check the servant observed monotonically
	// increasing counter values in reply order.
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 2)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("c")), nil, nil)
	b, _ := orb.SPMDBind(ior, faultyIface())
	const k = 25
	cells := make([]*future.Cell, 0, k)
	for i := 0; i < k; i++ {
		c, err := b.InvokeNB("seq", nil)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	for i, c := range cells {
		vals, err := c.Values()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		// The i-th request must observe the i-th counter increment.
		if vals[0] != int32(i+1) {
			t.Fatalf("request %d saw counter %v — invocation order violated", i, vals[0])
		}
	}
	b.Shutdown("done")
	wait()
}

func TestCancelPendingRequest(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 1)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("c")), nil, nil)
	b, _ := orb.SPMDBind(ior, faultyIface())
	cell, err := b.InvokeNB("slow", []any{int32(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !orb.Cancel(cell) {
		t.Fatal("Cancel did not find the pending request")
	}
	if err := cell.Wait(); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled cell resolved with %v", err)
	}
	if orb.Cancel(cell) {
		t.Fatal("double cancel reported success")
	}
	// The binding remains usable after a cancellation.
	if vals, err := b.Invoke("seq", nil); err != nil || vals[0] != int32(1) {
		// The cancelled request may or may not have been dispatched
		// first, so accept either counter value.
		if err != nil {
			t.Fatalf("post-cancel call: %v", err)
		}
	}
	b.Shutdown("done")
	wait()
}

func TestHostileSegmentRejected(t *testing.T) {
	// A forged ArgStream whose runs exceed the receiver's local storage
	// must produce a server exception, not a crash or silent corruption.
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 1)
	ep := fab.NewEndpoint("evil")
	layout := dist.BlockTemplate().Layout(10, 1)
	req := &pgiop.Request{
		BindingID: "evil-binding", SeqNo: 0, ReqID: 99,
		ClientRank: 0, ClientSize: 1,
		ReplyAddr: string(ep.Addr()),
		ObjectKey: "faulty-1", Operation: "boom",
		DistIns: []pgiop.DistInSpec{{Param: 0, N: 10, Layout: layout}},
	}
	seg := &pgiop.ArgStream{
		BindingID: "evil-binding", SeqNo: 0, Param: 0, Dir: pgiop.DirIn,
		Runs:    []pgiop.Run{{Global: 0, Len: 1000, DstOff: 0}},
		Payload: make([]byte, 8000),
	}
	if err := ep.Send(nexus.Addr(ior.Addrs[0]), pgiop.EncodeRequest(req)); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(nexus.Addr(ior.Addrs[0]), pgiop.EncodeArgStream(seg)); err != nil {
		t.Fatal(err)
	}
	fr, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := pgiop.DecodeReply(fr.Data)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != pgiop.StatusException || !strings.Contains(reply.Error, "exceeds local storage") {
		t.Fatalf("reply = %+v", reply)
	}
	// And the server survives for a legitimate client.
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("c")), nil, nil)
	b, _ := orb.SPMDBind(ior, faultyIface())
	if vals, err := b.Invoke("seq", nil); err != nil || vals[0] != int32(1) {
		t.Fatalf("post-attack call: %v %v", vals, err)
	}
	b.Shutdown("done")
	wait()
}

func TestRequestForUnknownObjectAndOperation(t *testing.T) {
	fab := nexus.NewInproc()
	ior, _, wait := startFaulty(t, fab, 1)
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("c")), nil, nil)
	bogus := ior
	bogus.Key = "no-such-object"
	b, _ := orb.SPMDBind(bogus, faultyIface())
	if _, err := b.Invoke("seq", nil); err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("err = %v", err)
	}
	// Unknown operation: an interface definition with an extra op the
	// server's servant table lacks.
	phantom := faultyIface()
	phantom.Ops = append(phantom.Ops, core.Operation{Name: "phantom"})
	b2, err := orb.SPMDBind(ior, phantom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Invoke("phantom", nil); err == nil || !strings.Contains(err.Error(), "no operation") {
		t.Fatalf("err = %v", err)
	}
	b3, _ := orb.SPMDBind(ior, faultyIface())
	b3.Shutdown("done")
	wait()
}

// TestMisfitDistributionRejected: a collective request whose distribution
// specs do not fit the client it names — a dist-in layout over another
// thread count, a dist-out template with a weight per some other number of
// threads or a root beyond them — is answered with an exception by every
// server thread's one verdict, before any layout is built from it; the
// adapter keeps serving.
func TestMisfitDistributionRejected(t *testing.T) {
	const S = 2
	fab := nexus.NewInproc()
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("misfit-host", S).Run(func(th rts.Thread) {
			p := poa.New(th, core.NewRouter(fab.NewEndpoint(fmt.Sprintf("misfit%d", th.Rank()))), nil)
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
	ep := fab.NewEndpoint("evil")
	in := pgiop.DistInSpec{Param: 1, N: 8, Layout: dist.BlockTemplate().Layout(8, 1)}
	for i, c := range []struct {
		in  pgiop.DistInSpec
		out dist.Template
	}{
		{pgiop.DistInSpec{Param: 1, N: 8, Layout: dist.BlockTemplate().Layout(8, 2)}, dist.BlockTemplate()},
		{in, dist.Proportions(1, 2)},
		{in, dist.CollapsedOn(1)},
	} {
		req := &pgiop.Request{
			BindingID: "misfit", SeqNo: uint32(i), ReqID: uint32(100 + i), ClientSize: 1,
			ReplyAddr: string(ep.Addr()), ObjectKey: "scaler-1", Operation: "scale",
			DistIns:  []pgiop.DistInSpec{c.in},
			DistOuts: []pgiop.DistOutSpec{{Param: 2, Tmpl: c.out}},
		}
		if err := ep.Send(nexus.Addr(ior.Addrs[0]), pgiop.EncodeRequest(req)); err != nil {
			t.Fatal(err)
		}
		fr, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		reply, err := pgiop.DecodeReply(fr.Data)
		if err != nil {
			t.Fatal(err)
		}
		if reply.ReqID != req.ReqID || reply.Status != pgiop.StatusException || !strings.Contains(reply.Error, "the client's 1") {
			t.Fatalf("misfit %d: reply = %+v", i, reply)
		}
	}
	// A client that fits is served.
	rts.NewChanGroup("misfit-client", 1).Run(func(th rts.Thread) {
		b, err := core.NewORB(core.NewRouter(fab.NewEndpoint("misfit-client")), th, nil).SPMDBind(ior, scaleIface())
		if err != nil {
			t.Error(err)
			return
		}
		x := dseq.New[float64](th, 8, dist.BlockTemplate(), dseq.Float64Codec{})
		for i := range x.Local() {
			x.Local()[i] = 1
		}
		y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		if vals, err := b.Invoke("scale", []any{2.0, x, y}); err != nil || vals[0] != 8.0 {
			t.Errorf("fitting call after the misfits: %v, %v", vals, err)
		}
		b.Shutdown("done")
	})
	wg.Wait()
}
