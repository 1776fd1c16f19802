package core

import (
	"reflect"
	"strings"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/typecode"
)

func sampleIOR() IOR {
	return IOR{
		Interface:  "direct",
		Key:        "direct-1",
		SPMD:       true,
		ServerSize: 3,
		Addrs:      []string{"inproc://a/1", "inproc://a/2", "inproc://a/3"},
		Host:       "onyx",
		InDists: []DistOverride{
			{Op: "solve", Param: 0, Tmpl: dist.CyclicTemplate()},
		},
	}
}

func TestIORStringRoundTrip(t *testing.T) {
	in := sampleIOR()
	out, err := ParseIOR(in.String())
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != in.Key || out.ServerSize != 3 || len(out.Addrs) != 3 ||
		out.Host != "onyx" || !out.SPMD {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if len(out.InDists) != 1 || out.InDists[0].Tmpl.Kind != dist.Cyclic {
		t.Fatalf("overrides lost: %+v", out.InDists)
	}
}

func TestParseIORRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"IOR:0001",
		"PARDIS-IOR:1:not-json",
		`PARDIS-IOR:1:{"key":"","addrs":["x"]}`, // empty key
		`PARDIS-IOR:1:{"key":"k"}`,              // no addrs
		`PARDIS-IOR:1:{"key":"k","spmd":true,"ssize":3,"addrs":["x"]}`, // size mismatch
		iorZeroThreads, iorNegativeThreads, iorHugeThreads,
	}
	for _, s := range cases {
		if _, err := ParseIOR(s); err == nil {
			t.Errorf("ParseIOR(%.40q): want error", s)
		}
	}
}

// Single-object references whose thread count no minted reference has; an
// invocation with a distributed in-argument sizes its schedule by it.
const (
	iorZeroThreads     = `PARDIS-IOR:1:{"key":"k","ssize":0,"addrs":["x"]}`
	iorNegativeThreads = `PARDIS-IOR:1:{"key":"k","ssize":-1,"addrs":["x"]}`
	iorHugeThreads     = `PARDIS-IOR:1:{"key":"k","ssize":1000000000,"addrs":["x"]}`
)

// FuzzParseIOR feeds arbitrary strings to the reference parser. Hostile
// input yields an error or a reference a client can use: its thread count is
// backed by its addresses, so a schedule over it can be built, and it
// survives its own stringification.
func FuzzParseIOR(f *testing.F) {
	single := sampleIOR()
	single.SPMD, single.ServerSize, single.Addrs = false, 1, single.Addrs[:1]
	f.Add(sampleIOR().String())
	f.Add(single.String())
	f.Add(iorZeroThreads)
	f.Add(iorNegativeThreads)
	f.Add(iorHugeThreads)
	f.Fuzz(func(t *testing.T, s string) {
		ior, err := ParseIOR(s)
		if err != nil {
			return
		}
		if ior.ServerSize < 1 || ior.ServerSize > len(ior.Addrs) {
			t.Fatalf("accepted %d server threads over %d addresses", ior.ServerSize, len(ior.Addrs))
		}
		dist.BlockTemplate().Layout(8, ior.ServerSize)
		again, err := ParseIOR(ior.String())
		if err != nil {
			t.Fatalf("%q does not re-parse: %v", ior.String(), err)
		}
		if len(ior.InDists) == 0 {
			ior.InDists = nil // "indists":[] is omitted on the way out
		}
		if !reflect.DeepEqual(again, ior) {
			t.Fatalf("re-parsed %+v, want %+v", again, ior)
		}
	})
}

func TestApplyOverrides(t *testing.T) {
	ior := sampleIOR()
	def := &InterfaceDef{
		Name: "direct",
		Ops: []Operation{{
			Name: "solve",
			Params: []Param{
				NewParam("A", In, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
			},
		}},
	}
	clone := def.Clone()
	if err := ior.ApplyOverrides(clone); err != nil {
		t.Fatal(err)
	}
	if clone.Ops[0].Params[0].ServerDist.Kind != dist.Cyclic {
		t.Fatal("override not applied")
	}
	// The original stays untouched — Clone isolates per-binding state.
	if def.Ops[0].Params[0].ServerDist.Kind == dist.Cyclic {
		t.Fatal("Clone aliased the original")
	}
	bad := ior
	bad.InDists = []DistOverride{{Op: "nope", Param: 0}}
	if err := bad.ApplyOverrides(def.Clone()); err == nil {
		t.Fatal("want error for unknown op override")
	}
}

func TestOperationValidate(t *testing.T) {
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "", "")
	cases := []struct {
		name string
		op   Operation
		ok   bool
	}{
		{"plain", Operation{Name: "f", Params: []Param{NewParam("x", In, typecode.TCLong)}}, true},
		{"oneway with result", Operation{Name: "f", Oneway: true, Result: typecode.TCLong}, false},
		{"oneway with out", Operation{Name: "f", Oneway: true,
			Params: []Param{NewParam("x", Out, typecode.TCLong)}}, false},
		{"dist inout", Operation{Name: "f",
			Params: []Param{NewParam("x", InOut, dv)}}, false},
		{"dist in/out ok", Operation{Name: "f",
			Params: []Param{NewParam("x", In, dv), NewParam("y", Out, dv)}}, true},
	}
	for _, c := range cases {
		if err := c.op.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	dup := &InterfaceDef{Name: "i", Ops: []Operation{{Name: "a"}, {Name: "a"}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate op accepted")
	}
}

func TestResultIndex(t *testing.T) {
	op := &Operation{
		Name:   "f",
		Result: typecode.TCLong,
		Params: []Param{
			NewParam("a", In, typecode.TCLong),
			NewParam("b", Out, typecode.TCLong),
			NewParam("c", InOut, typecode.TCString),
			NewParam("d", Out, typecode.TCDouble),
		},
	}
	if got := ResultIndex(op, 0); got != -1 {
		t.Fatalf("in param index = %d", got)
	}
	// [ret, b, c, d] -> b=1, c=2, d=3
	if ResultIndex(op, 1) != 1 || ResultIndex(op, 2) != 2 || ResultIndex(op, 3) != 3 {
		t.Fatal("out indices wrong")
	}
	if n := resultCount(op); n != 4 {
		t.Fatalf("resultCount = %d", n)
	}
	void := &Operation{Name: "g", Params: []Param{NewParam("b", Out, typecode.TCLong)}}
	if ResultIndex(void, 0) != 0 {
		t.Fatal("void op out index wrong")
	}
}

func TestSetServerDistValidation(t *testing.T) {
	def := &InterfaceDef{
		Name: "i",
		Ops: []Operation{{
			Name: "f",
			Params: []Param{
				NewParam("plain", In, typecode.TCLong),
				NewParam("d", In, typecode.DSequenceOf(typecode.TCDouble, 0, "", "")),
			},
		}},
	}
	if err := def.SetServerDist("f", 1, dist.CyclicTemplate()); err != nil {
		t.Fatal(err)
	}
	if err := def.SetServerDist("f", 0, dist.CyclicTemplate()); err == nil {
		t.Fatal("non-distributed param accepted")
	}
	if err := def.SetServerDist("nope", 0, dist.CyclicTemplate()); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestRouterClassification(t *testing.T) {
	fab := nexus.NewInproc()
	a := fab.NewEndpoint("a")
	b := fab.NewEndpoint("b")
	r := NewRouter(b)

	// Interleave server-bound and client-bound frames.
	a.Send(b.Addr(), pgiop.EncodeRequest(&pgiop.Request{BindingID: "x", Operation: "op", ObjectKey: "k"}))
	a.Send(b.Addr(), pgiop.EncodeReply(&pgiop.Reply{ReqID: 7}))
	a.Send(b.Addr(), pgiop.EncodeArgStream(&pgiop.ArgStream{Dir: pgiop.DirIn, BindingID: "x"}))
	a.Send(b.Addr(), pgiop.EncodeArgStream(&pgiop.ArgStream{Dir: pgiop.DirOut, ReqID: 7}))
	a.Send(b.Addr(), []byte("garbage frame that is not pgiop"))
	a.Send(b.Addr(), pgiop.EncodeShutdown(&pgiop.Shutdown{Reason: "r"}))

	// Client receive skips server frames (queueing them) and garbage.
	m, ok, err := r.RecvClient(true)
	if err != nil || !ok || m.Type != pgiop.MsgReply || m.Reply.ReqID != 7 {
		t.Fatalf("client got %+v, %v, %v", m, ok, err)
	}
	m, _, _ = r.RecvClient(true)
	if m.Type != pgiop.MsgArgStream || m.Arg.Dir != pgiop.DirOut {
		t.Fatalf("client got %+v", m)
	}
	// Server receives see the queued request, in-segment and shutdown.
	m, _, _ = r.RecvServer(true)
	if m.Type != pgiop.MsgRequest || m.Req.Operation != "op" {
		t.Fatalf("server got %+v", m)
	}
	m, _, _ = r.RecvServer(true)
	if m.Type != pgiop.MsgArgStream || m.Arg.Dir != pgiop.DirIn {
		t.Fatalf("server got %+v", m)
	}
	m, _, _ = r.RecvServer(true)
	if m.Type != pgiop.MsgShutdown {
		t.Fatalf("server got %+v", m)
	}
	// Nothing left.
	if _, ok, _ := r.RecvServer(false); ok {
		t.Fatal("phantom server frame")
	}
	if _, ok, _ := r.RecvClient(false); ok {
		t.Fatal("phantom client frame")
	}
}

// TestRouterQueuesWholeBatch: a batch of server-bound messages set aside by
// one client receive comes back in arrival order, and the drained queue's
// storage is reused by the next batch rather than regrown.
func TestRouterQueuesWholeBatch(t *testing.T) {
	fab := nexus.NewInproc()
	a := fab.NewEndpoint("a")
	b := fab.NewEndpoint("b")
	r := NewRouter(b)
	const batch = 64
	capAfterFirst := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < batch; i++ {
			a.Send(b.Addr(), pgiop.EncodeRequest(&pgiop.Request{BindingID: "x", Operation: "op", ObjectKey: "k", SeqNo: uint32(i)}))
		}
		a.Send(b.Addr(), pgiop.EncodeReply(&pgiop.Reply{ReqID: uint32(round)}))
		if m, ok, err := r.RecvClient(true); err != nil || !ok || m.Reply.ReqID != uint32(round) {
			t.Fatalf("round %d: client got %+v, %v, %v", round, m, ok, err)
		}
		for i := 0; i < batch; i++ {
			m, ok, err := r.RecvServer(false)
			if err != nil || !ok || m.Req.SeqNo != uint32(i) {
				t.Fatalf("round %d: request %d came back as %+v, %v, %v", round, i, m, ok, err)
			}
		}
		if _, ok, _ := r.RecvServer(false); ok {
			t.Fatalf("round %d: phantom server frame", round)
		}
		if c := cap(r.serverQ.q); round == 0 {
			capAfterFirst = c
		} else if c != capAfterFirst {
			t.Fatalf("round %d: queue storage regrown to %d, was %d", round, c, capAfterFirst)
		}
	}
}

func TestLocalTable(t *testing.T) {
	table := NewLocalTable()
	op := &Operation{Name: "f", Result: typecode.TCLong,
		Params: []Param{NewParam("x", In, typecode.TCLong)}}
	table.Register("obj", func(o *Operation, args []any) ([]any, error) {
		return []any{args[0].(int32) * 2}, nil
	})
	lo := table.lookup("obj")
	if lo == nil {
		t.Fatal("lookup failed")
	}
	vals, err := lo(op, []any{int32(21)})
	if err != nil || vals[0] != int32(42) {
		t.Fatalf("vals = %v, %v", vals, err)
	}
	table.Unregister("obj")
	if table.lookup("obj") != nil {
		t.Fatal("unregister failed")
	}
	var nilTable *LocalTable
	if nilTable.lookup("x") != nil {
		t.Fatal("nil table lookup should be nil")
	}
}

func TestInvokeArgValidation(t *testing.T) {
	fab := nexus.NewInproc()
	orb := NewORB(NewRouter(fab.NewEndpoint("cli")), nil, nil)
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "", "")
	iface := &InterfaceDef{
		Name: "i",
		Ops: []Operation{
			{Name: "f", Params: []Param{NewParam("x", In, typecode.TCLong)}},
			{Name: "g", Params: []Param{NewParam("d", In, dv)}},
		},
	}
	spmdIOR := IOR{Interface: "i", Key: "k", SPMD: true, ServerSize: 1, Addrs: []string{"inproc://missing/1"}}
	b, err := orb.SPMDBind(spmdIOR, iface)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.InvokeNB("nope", nil); err == nil || !strings.Contains(err.Error(), "no operation") {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := b.InvokeNB("f", nil); err == nil || !strings.Contains(err.Error(), "takes 1 arguments") {
		t.Fatalf("arity: %v", err)
	}
	if _, err := b.InvokeNB("g", []any{"not a dseq"}); err == nil ||
		!strings.Contains(err.Error(), "distributed sequence") {
		t.Fatalf("dist type: %v", err)
	}
	// Distributed args require an SPMD object.
	singleIOR := spmdIOR
	singleIOR.SPMD = false
	bs, _ := orb.Bind(singleIOR, iface)
	if _, err := bs.InvokeNB("g", []any{nil}); err == nil ||
		!strings.Contains(err.Error(), "non-SPMD object") {
		t.Fatalf("single-object dist: %v", err)
	}
	// Send to a dead address surfaces immediately.
	if _, err := b.InvokeNB("f", []any{int32(1)}); err == nil {
		t.Fatal("want transport error for missing endpoint")
	}
}

func TestSetOutDistValidation(t *testing.T) {
	fab := nexus.NewInproc()
	orb := NewORB(NewRouter(fab.NewEndpoint("cli")), nil, nil)
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "", "")
	iface := &InterfaceDef{
		Name: "i",
		Ops: []Operation{{
			Name: "f",
			Params: []Param{
				NewParam("in", In, dv),
				NewParam("out", Out, dv),
			},
		}},
	}
	ior := IOR{Interface: "i", Key: "k", SPMD: true, ServerSize: 1, Addrs: []string{"inproc://x/1"}}
	b, _ := orb.SPMDBind(ior, iface)
	if err := b.SetOutDist("f", 1, dist.CollapsedOn(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOutDist("f", 0, dist.CollapsedOn(0)); err == nil {
		t.Fatal("in param accepted as out dist target")
	}
	if err := b.SetOutDist("zzz", 0, dist.CollapsedOn(0)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestNewParamPanicsOnBadDistAnnotation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for bad distribution annotation")
		}
	}()
	NewParam("x", In, typecode.DSequenceOf(typecode.TCDouble, 0, "DIAGONAL", ""))
}

func TestDecodeMsgRejectsGarbage(t *testing.T) {
	if _, err := DecodeMsg(nexus.Frame{Data: []byte("xx")}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeMsg(nexus.Frame{Data: pgiop.EncodeReply(&pgiop.Reply{ReqID: 1})[:5]}); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestTransportFailureResolvesPendingFutures(t *testing.T) {
	// If the client's endpoint dies while invocations are pending, their
	// futures must resolve with an error instead of hanging forever.
	fab := nexus.NewInproc()
	clientEP := fab.NewEndpoint("cli")
	serverEP := fab.NewEndpoint("srv") // nobody serves; requests just sit
	orb := NewORB(NewRouter(clientEP), nil, nil)
	iface := &InterfaceDef{Name: "i", Ops: []Operation{{Name: "f"}}}
	ior := IOR{Interface: "i", Key: "k", ServerSize: 1, Addrs: []string{string(serverEP.Addr())}}
	b, err := orb.Bind(ior, iface)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := b.InvokeNB("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cell.Wait() }()
	clientEP.Close()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "transport failed") {
		t.Fatalf("err = %v, want transport failure", err)
	}
	// Accessors along the way.
	if b.IOR().Key != "k" || b.SPMD() || orb.Router() == nil || orb.Comm() != nil || b.ORB() != orb {
		t.Fatal("accessors broken")
	}
}
