package main

import (
	"fmt"
	"runtime"
	"time"

	"pardis"
	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// The replay half of the traced pass times single layers through their
// public functions, in isolation, on the workload's own messages and sizes.
// Nothing contends here, so a replay number is the floor a layer contributes
// to an end-to-end one, not its share under load.

const (
	// replayBudget is the replay child's full measuring time; given less
	// (the smoke test does), every replay shrinks in proportion.
	replayBudget = 10 * time.Second
	// replaySlice is how long one isolated function is timed for.
	replaySlice = 150 * time.Millisecond
	bulkReplay  = 512 << 10 // doubles: one 4 MiB run
)

// replayer carries the replays' results and how far to shrink them.
type replayer struct {
	scale float64 // share of replayBudget this child was given, at most 1
	v     map[string]float64
}

func (r *replayer) slice(d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*r.scale), time.Millisecond)
}

func (r *replayer) count(n int) int { return max(int(float64(n)*r.scale), 20) }

// opSample is one invocation of a workload as the ORB would put it on the
// wire: the operation, the inline arguments and the inline results (each one
// entry per parameter, nil where the parameter is not of that kind), and
// the distributed-argument specs the headers carry.
type opSample struct {
	op       *core.Operation
	in       []any
	out      []any
	distIns  []pgiop.DistInSpec
	distOuts []pgiop.DistOutSpec
	outLens  []pgiop.OutLen
}

// perCall times fn in blocks of about a millisecond for the given slice of
// time and returns the median block's nanoseconds per call.
func perCall(slice time.Duration, fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var blocks []float64
	for end := time.Now().Add(slice); time.Now().Before(end) || len(blocks) < 5; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		blocks = append(blocks, float64(time.Since(t0))/float64(n))
	}
	return median(blocks)
}

// runReplay is the replay child.
func runReplay(w *workload, seed uint64, budget time.Duration) *repResult {
	res := &repResult{Workload: w.name, Values: map[string]float64{}}
	v := res.Values
	r := &replayer{scale: min(1, float64(budget)/float64(replayBudget)), v: v}
	fail := func(what string, err error) *repResult {
		res.Error = fmt.Sprintf("replay %s: %v", what, err)
		res.Attempted, res.Failed = 1, 1
		return res
	}
	if w.sample != nil {
		s := w.sample(seed)
		frame, err := r.codecs(s)
		if err != nil {
			return fail("codecs", err)
		}
		if v["nexus.raw_rtt_us"], err = r.rawRTT(w.tcp, len(frame)); err != nil {
			return fail("raw round trip", err)
		}
		if v["stub.overhead_ns"], err = r.stub(seed); err != nil {
			return fail("stub", err)
		}
	}
	r.argStream()
	r.cdr()
	r.rts()
	r.dist()
	r.dseq()
	v["future.cycle_ns"] = perCall(r.slice(replaySlice), func() {
		c := future.NewCell()
		f := future.Of[int](c, 0)
		c.Resolve([]any{1}, nil)
		if got, _ := f.Get(); got != 1 {
			panic("future: wrong value")
		}
	})
	epoch := time.Now()
	var sink time.Duration
	v["trace.clock_read_ns"] = perCall(r.slice(replaySlice), func() { sink += time.Since(epoch) })
	if w.name == "rtt64_inproc" {
		var err error
		if v["obs.recorder_overhead_us"], err = r.recorder(seed); err != nil {
			return fail("recorder", err)
		}
	}
	return res
}

// codecs times the pgiop request and reply codecs and the typecode
// marshalling on the workload's own frames, and returns the request frame.
func (r *replayer) codecs(s *opSample) ([]byte, error) {
	v, slice := r.v, r.slice(replaySlice)
	marshal := func(e *cdr.Encoder, vals []any, out bool) error {
		for i := range s.op.Params {
			p := &s.op.Params[i]
			if p.Distributed() || (p.Mode == core.Out) != out {
				continue
			}
			if err := typecode.Marshal(e, p.Type, vals[i]); err != nil {
				return err
			}
		}
		return nil
	}
	reqBody, repBody := cdr.NewEncoder(256), cdr.NewEncoder(256)
	if err := marshal(reqBody, s.in, false); err != nil {
		return nil, err
	}
	if err := marshal(repBody, s.out, true); err != nil {
		return nil, err
	}
	req := &pgiop.Request{
		BindingID: "tcp://127.0.0.1:40000#1", SeqNo: 7, ReqID: 8, ClientSize: 1,
		ReplyAddr: "tcp://127.0.0.1:40000", ObjectKey: "object-1", Operation: s.op.Name,
		DistIns: s.distIns, DistOuts: s.distOuts, Body: reqBody.Bytes(),
	}
	rep := &pgiop.Reply{ReqID: 8, Status: pgiop.StatusOK, OutLens: s.outLens, Body: repBody.Bytes()}
	reqFrame, repFrame := pgiop.EncodeRequest(req), pgiop.EncodeReply(rep)

	var gotReq pgiop.Request
	var gotRep pgiop.Reply
	var cerr error
	v["pgiop.req_codec_ns"] = perCall(slice, func() {
		hdr := cdr.GetEncoder(128)
		pgiop.AppendRequest(hdr, req)
		hdr.Release()
		if err := pgiop.DecodeRequestInto(&gotReq, reqFrame); err != nil {
			cerr = err
		}
	})
	v["pgiop.rep_codec_ns"] = perCall(slice, func() {
		hdr := cdr.GetEncoder(128)
		pgiop.AppendReply(hdr, rep)
		hdr.Release()
		if err := pgiop.DecodeReplyInto(&gotRep, repFrame); err != nil {
			cerr = err
		}
	})
	if cerr == nil && (gotReq.Operation != s.op.Name || gotRep.ReqID != rep.ReqID) {
		cerr = fmt.Errorf("pgiop round trip changed the message")
	}
	v["typecode.marshal_ns"] = perCall(slice, func() {
		e := cdr.GetEncoder(256)
		if err := marshal(e, s.in, false); err != nil {
			cerr = err
		}
		d := cdr.GetDecoder(e.Bytes())
		for i := range s.op.Params {
			if p := &s.op.Params[i]; !p.Distributed() && p.Mode != core.Out {
				if _, err := typecode.Unmarshal(d, p.Type); err != nil {
					cerr = err
				}
			}
		}
		d.Release()
		e.Release()
	})
	return reqFrame, cerr
}

// argStream times the segment header codec on one 256 KiB chunk of a
// contiguous move; the payload is never copied, so its size does not matter.
func (r *replayer) argStream() {
	a := &pgiop.ArgStream{
		BindingID: "tcp://127.0.0.1:40000#1", SeqNo: 7, ReqID: 8, Param: 1, Dir: pgiop.DirIn,
		ChunkOff: 32768, More: true, Runs: []pgiop.Run{{Global: 32768, Len: 32768, DstOff: 32768}},
		Payload: make([]byte, 256<<10),
	}
	frame := pgiop.EncodeArgStream(a)
	r.v["pgiop.argstream_codec_ns"] = perCall(r.slice(replaySlice), func() {
		hdr := cdr.GetEncoder(128)
		pgiop.AppendArgStream(hdr, a)
		hdr.Release()
		if _, err := pgiop.DecodeArgStream(frame); err != nil {
			panic(err)
		}
	})
}

// cdr times the bulk double path, encode plus decode, on 4 MiB.
func (r *replayer) cdr() {
	src, dst := make([]float64, bulkReplay), make([]float64, bulkReplay)
	for i := range src {
		src[i] = float64(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	ns := perCall(r.slice(2*replaySlice), func() {
		calls++
		e := cdr.GetEncoder(8*bulkReplay + 16)
		e.PutDoubles(src)
		d := cdr.GetDecoder(e.Bytes())
		if d.GetSeqLen(8) != bulkReplay || !d.GetDoublesInto(dst) {
			panic("cdr: bulk round trip failed")
		}
		d.Release()
		e.Release()
	})
	runtime.ReadMemStats(&after)
	const mib = 8 * bulkReplay / float64(1<<20)
	r.v["cdr.bulk_MiB_per_s"] = mib / (ns / 1e9)
	r.v["cdr.bulk_alloc_bytes_per_MiB"] = float64(after.TotalAlloc-before.TotalAlloc) / (float64(calls) * mib)
}

// pingPong runs body(rank) on both ranks of a fresh 2-thread group and
// returns how long rank 0 took.
func pingPong(body func(th rts.Thread)) time.Duration {
	var took time.Duration
	pardis.NewChanGroup("replay", 2).Run(func(th rts.Thread) {
		th.Barrier()
		t0 := time.Now()
		body(th)
		if th.Rank() == 0 {
			took = time.Since(t0)
		}
	})
	return took
}

// rts times the collective under the POA agreement (a 200 B broadcast over
// 2 ranks, roots alternating so each waits for the other) and a 1 MiB
// point-to-point exchange.
func (r *replayer) rts() {
	v, rounds := r.v, r.count(2000)
	small := make([]byte, 200)
	took := pingPong(func(th rts.Thread) {
		for i := 0; i < rounds; i++ {
			rts.Bcast(th, 0, small)
			rts.Bcast(th, 1, small)
		}
	})
	v["rts.bcast2_us"] = float64(took) / float64(2*rounds) / 1e3
	big := make([]byte, 1<<20)
	took = pingPong(func(th rts.Thread) {
		peer := 1 - th.Rank()
		for i := 0; i < rounds; i++ {
			if th.Rank() == 0 {
				th.Send(peer, 1, big)
				th.Recv(peer, 1)
			} else {
				th.Recv(peer, 1)
				th.Send(peer, 1, big)
			}
		}
	})
	v["rts.p2p_MiB_per_s"] = float64(2*rounds) / took.Seconds()
}

// dist times building the two schedule shapes the workloads use and
// hitting the cache with the expensive one.
func (r *replayer) dist() {
	v := r.v
	blocks := dist.BlockTemplate().Layout(redistElems, 2)
	cyclic := dist.CyclicTemplate().Layout(redistElems, 2)
	v["dist.schedule_build_us"] = perCall(r.slice(2*replaySlice), func() { dist.NewSchedule(blocks, cyclic) }) / 1e3
	uneven := dist.Proportions(1, 3).Layout(bulkElems, 2)
	even := dist.BlockTemplate().Layout(bulkElems, 2)
	v["dist.schedule_build_small_us"] = perCall(r.slice(replaySlice), func() { dist.NewSchedule(uneven, even) }) / 1e3
	cache := dist.NewScheduleCache(16)
	cache.Get(blocks, cyclic)
	v["dist.schedule_hit_ns"] = perCall(r.slice(replaySlice), func() { cache.Get(blocks, cyclic) })
}

// dseq times the element codec both ways it is used: one 4 MiB run, and
// 64 Ki one-element runs, encode plus scatter.
func (r *replayer) dseq() {
	v := r.v
	data := make([]float64, bulkReplay)
	for i := range data {
		data[i] = float64(i)
	}
	src := dseq.Sequential(data, dseq.Float64Codec{})
	dst := dseq.Sequential(make([]float64, bulkReplay), dseq.Float64Codec{})
	roundTrip := func(runs []dist.Run) {
		e := cdr.GetEncoder(8*bulkReplay + 16)
		src.EncodeRuns(e, runs)
		d := cdr.GetDecoder(e.Bytes())
		if err := dst.DecodeRuns(d, runs); err != nil {
			panic(err)
		}
		d.Release()
		e.Release()
	}
	one := []dist.Run{{Global: 0, Len: bulkReplay}}
	ns := perCall(r.slice(2*replaySlice), func() { roundTrip(one) })
	v["dseq.big_run_MiB_per_s"] = 8 * bulkReplay / float64(1<<20) / (ns / 1e9)
	const small = 64 << 10
	many := make([]dist.Run, small)
	for i := range many {
		many[i] = dist.Run{Global: 2 * i, Len: 1, SrcOff: 2 * i, DstOff: i}
	}
	v["dseq.small_run_ns"] = perCall(r.slice(2*replaySlice), func() { roundTrip(many) }) / small
}

// rawRTT is a bare endpoint ping-pong on the workload's fabric with its
// request's frame size: the floor under lat_p50_us.
func (r *replayer) rawRTT(tcp bool, frame int) (float64, error) {
	var fab *nexus.Inproc
	if !tcp {
		fab = pardis.NewInproc()
	}
	e := &env{}
	a, err := newEndpoint(e, fab, "a")
	if err != nil {
		return 0, err
	}
	b, err := newEndpoint(e, fab, "b")
	if err != nil {
		return 0, err
	}
	go func() {
		for {
			fr, err := b.Recv()
			if err != nil || b.Send(fr.From, fr.Data) != nil {
				return
			}
		}
	}()
	defer a.Close()
	defer b.Close()
	buf := make([]byte, frame)
	var h hist
	var rerr error
	warm := r.count(500)
	for i := 0; i < warm+r.count(20000) && rerr == nil; i++ {
		t0 := time.Now()
		if rerr = a.Send(b.Addr(), buf); rerr == nil {
			_, rerr = a.Recv()
		}
		if i >= warm {
			h.add(int64(time.Since(t0)))
		}
	}
	return h.quantile(0.5) / 1e3, rerr
}

// echoFixture sets the in-process echo up for a replay.
func echoFixture(seed uint64) (*echoCaller, error) {
	inst, err := startEcho(&env{seed: seed}, false)
	if err != nil {
		return nil, err
	}
	c, err := inst.newCaller(0)
	if err != nil {
		return nil, err
	}
	return c.(*echoCaller), nil
}

// stub is the generated stub's cost over a raw Binding.Invoke: the
// two are called in pairs and the median of the paired differences taken,
// which resolves tens of nanoseconds where two separate medians of a 5 us
// call cannot.
func (r *replayer) stub(seed uint64) (float64, error) {
	c, err := echoFixture(seed)
	if err != nil {
		return 0, err
	}
	raw := func(x []byte) error {
		_, err := c.proxy.Binding().Invoke("echo", []any{x, nil})
		return err
	}
	stub := func(x []byte) error {
		_, err := c.proxy.Echo(x)
		return err
	}
	pairs, warm := r.count(40000), r.count(500)
	diffs := make([]float64, 0, pairs)
	for i := 0; i < pairs+warm; i++ {
		// Which of the two goes first alternates: the second call of a
		// pair finds the caches warmer.
		first, second, sign := raw, stub, 1.0
		if i%2 == 1 {
			first, second, sign = stub, raw, -1.0
		}
		x := c.in[i%len(c.in)]
		t0 := time.Now()
		err1 := first(x)
		t1 := time.Now()
		err2 := second(x)
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("echo failed: %v, %v", err1, err2)
		}
		if i >= warm {
			diffs = append(diffs, sign*float64(t2.Sub(t1)-t1.Sub(t0)))
		}
	}
	return median(diffs), c.shutdown()
}

// recorder is what the program's own flight recorder adds to the
// in-process round trip: the one place program-side tracing is switched
// on. Blocks with it on and off alternate for about 3 s, which cancels drift.
func (r *replayer) recorder(seed uint64) (float64, error) {
	c, err := echoFixture(seed)
	if err != nil {
		return 0, err
	}
	defer func() {
		obs.DefaultTracer.DisableRecorder()
		obs.DefaultTracer.SetEnabled(false)
	}()
	var lat [2]hist
	for block := 0; block < 62; block++ {
		on := block % 2
		if on == 1 {
			obs.DefaultTracer.EnableRecorder(obs.RecorderConfig{})
		} else {
			obs.DefaultTracer.DisableRecorder()
			obs.DefaultTracer.SetEnabled(false)
		}
		for i := r.count(8000); i > 0; i-- {
			t0 := time.Now()
			if _, err := c.proxy.Echo(c.in[i%len(c.in)]); err != nil {
				return 0, err
			}
			if block >= 2 { // the first block of each kind is warm-up
				lat[on].add(int64(time.Since(t0)))
			}
		}
	}
	return (lat[1].quantile(0.5) - lat[0].quantile(0.5)) / 1e3, c.shutdown()
}
