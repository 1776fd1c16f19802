// Package dseq implements PARDIS distributed sequences: the generalization
// of the CORBA sequence to data distributed over the address spaces of an
// SPMD program's computing threads (paper §3.2).
//
// A DSeq behaves as a one-dimensional array with variable length and
// distribution. Its distribution is set by a distribution template and may
// be changed by redistribution; element access through At/Set is location
// transparent; the no-ownership constructor Wrap and the Local accessor let
// application packages convert between their native structures and the
// sequence without copying — the sequence is "a container for argument
// data, not ... its management".
package dseq

import (
	"fmt"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// DSeq is a distributed sequence of T over the computing threads of one
// parallel program. Each thread of the program holds its own DSeq value
// (created collectively) storing the locally-owned elements.
type DSeq[T any] struct {
	comm   rts.Comm // nil in a sequential (single-thread, non-SPMD) context
	layout dist.Layout
	local  []T
	codec  Codec[T]
	bound  int // 0 = unbounded
	winID  uint64
	shared bool
}

// New collectively creates a distributed sequence of length n with the
// given distribution template, allocating zeroed local storage on each
// thread. Every thread of comm must call New with identical arguments.
func New[T any](comm rts.Comm, n int, tmpl dist.Template, codec Codec[T]) *DSeq[T] {
	l := tmpl.Layout(n, commSize(comm))
	return &DSeq[T]{
		comm:   comm,
		layout: l,
		local:  make([]T, l.Count(commRank(comm))),
		codec:  codec,
	}
}

// Wrap is the no-ownership constructor: it adopts the caller's slice as the
// thread's local storage without copying, so changes are visible both ways.
// The slice length must equal the thread's share of the layout.
func Wrap[T any](comm rts.Comm, layout dist.Layout, local []T, codec Codec[T]) *DSeq[T] {
	if want := layout.Count(commRank(comm)); len(local) != want {
		panic(fmt.Sprintf("dseq: Wrap with %d elements, layout owns %d on rank %d",
			len(local), want, commRank(comm)))
	}
	if layout.P != commSize(comm) {
		panic(fmt.Sprintf("dseq: layout for %d threads used in a program of %d", layout.P, commSize(comm)))
	}
	return &DSeq[T]{comm: comm, layout: layout, local: local, codec: codec}
}

// Sequential creates a sequence in a non-SPMD context (a single client): one
// thread owns everything. It adopts data without copying.
func Sequential[T any](data []T, codec Codec[T]) *DSeq[T] {
	return &DSeq[T]{
		layout: dist.BlockTemplate().Layout(len(data), 1),
		local:  data,
		codec:  codec,
	}
}

func commSize(c rts.Comm) int {
	if c == nil {
		return 1
	}
	return c.Size()
}

func commRank(c rts.Comm) int {
	if c == nil {
		return 0
	}
	return c.Rank()
}

// Len reports the sequence's global length.
func (s *DSeq[T]) Len() int { return s.layout.N }

// Layout reports the current distribution.
func (s *DSeq[T]) Layout() dist.Layout { return s.layout }

// Local is the access to owned data: the thread's slice of the sequence,
// aliasing internal storage.
func (s *DSeq[T]) Local() []T { return s.local }

// Rank returns this thread's rank in the sequence's program.
func (s *DSeq[T]) Rank() int { return commRank(s.comm) }

// Codec returns the element codec.
func (s *DSeq[T]) Codec() Codec[T] { return s.codec }

// SetBound declares the IDL bound (0 = unbounded). Exceeding it is reported
// at marshal time by the stub layer.
func (s *DSeq[T]) SetBound(b int) { s.bound = b }

// Bound reports the declared IDL bound.
func (s *DSeq[T]) Bound() int { return s.bound }

// Share collectively publishes each thread's storage for location-
// transparent access (At/Set on non-owned indices). It requires the Window
// capability of the run-time system; without it only owned-data access is
// available — the functionality restriction the paper accepts in exchange
// for a minimal RTS interface.
func (s *DSeq[T]) Share() error {
	if s.comm == nil {
		s.shared = true
		return nil
	}
	w, ok := s.comm.(rts.Window)
	if !ok {
		return fmt.Errorf("dseq: run-time system %T has no one-sided window support", s.comm)
	}
	s.winID = w.WinAlloc()
	w.WinPut(s.winID, s.comm.Rank(), s.local)
	s.comm.Barrier() // everyone published
	s.shared = true
	return nil
}

// At returns element g with location transparency: owned elements are read
// directly, remote ones through the RTS window (Share must have been called
// for remote access).
func (s *DSeq[T]) At(g int) T {
	r, loc := s.layout.Locate(g)
	if s.comm == nil || r == s.comm.Rank() {
		return s.local[loc]
	}
	return s.remote(r)[loc]
}

// Set assigns element g, transparently reaching remote storage like At.
func (s *DSeq[T]) Set(g int, v T) {
	r, loc := s.layout.Locate(g)
	if s.comm == nil || r == s.comm.Rank() {
		s.local[loc] = v
		return
	}
	s.remote(r)[loc] = v
}

func (s *DSeq[T]) remote(rank int) []T {
	if !s.shared {
		panic("dseq: remote element access requires Share()")
	}
	w := s.comm.(rts.Window)
	var probe T
	v := w.WinGet(s.winID, rank, elemCost(probe))
	return v.([]T)
}

// elemCost estimates the modeled byte cost of one remote element access.
func elemCost(v any) int {
	switch t := v.(type) {
	case byte:
		return 1
	case string:
		return len(t) + 8
	default:
		return 8
	}
}

// Redistribute collectively rearranges the sequence according to the
// template, exchanging elements between threads ("using different
// distribution templates the programmer can also redistribute the
// sequence"). The local storage is replaced.
func (s *DSeq[T]) Redistribute(tmpl dist.Template) {
	newLayout := tmpl.Layout(s.layout.N, commSize(s.comm))
	s.RedistributeTo(newLayout)
}

// RedistributeTo rearranges the sequence to an explicit layout.
func (s *DSeq[T]) RedistributeTo(newLayout dist.Layout) {
	if newLayout.N != s.layout.N || newLayout.P != s.layout.P {
		panic("dseq: redistribution must preserve length and thread count")
	}
	if newLayout.Equal(s.layout) {
		return
	}
	s.local = exchange(s.comm, s.codec, s.layout, newLayout, s.local)
	s.layout = newLayout
	if s.shared && s.comm != nil {
		w := s.comm.(rts.Window)
		w.WinPut(s.winID, s.comm.Rank(), s.local)
		s.comm.Barrier()
	}
}

// GatherTo collectively collects the full sequence on root; other threads
// receive nil.
func (s *DSeq[T]) GatherTo(root int) []T {
	target := dist.CollapsedOn(root).Layout(s.layout.N, s.layout.P)
	out := exchange(s.comm, s.codec, s.layout, target, s.local)
	if commRank(s.comm) == root {
		return out
	}
	return nil
}

// Scatter collectively creates a sequence distributed per tmpl from a full
// slice present on root (other threads pass nil).
func Scatter[T any](comm rts.Comm, root int, full []T, n int, tmpl dist.Template, codec Codec[T]) *DSeq[T] {
	src := dist.CollapsedOn(root).Layout(n, commSize(comm))
	dst := tmpl.Layout(n, commSize(comm))
	var in []T
	if commRank(comm) == root {
		if len(full) != n {
			panic(fmt.Sprintf("dseq: Scatter root has %d elements, want %d", len(full), n))
		}
		in = full
	}
	local := exchange(comm, codec, src, dst, in)
	return &DSeq[T]{comm: comm, layout: dst, local: local, codec: codec}
}

// exchangeChunkBytes bounds the payload of one redistribution message:
// moves larger than this are streamed as several chunks, so peak encoder
// residency during a redistribution is O(chunk) regardless of sequence
// size. The size is fixed — the bound the ORB's transfers use — and a
// variable only so in-package tests can force many chunks. Chunks are
// self-describing (each message carries its own offset and count), so the
// value need not agree across ranks.
var exchangeChunkBytes = 256 << 10

// chunkHdrBytes over-covers the off/count/more chunk header plus the
// payload's alignment padding when sizing chunk encoders.
const chunkHdrBytes = 16

// exchMove tracks the streaming progress of one move of an exchange: done
// counts elements already sent (outgoing moves) or decoded (incoming).
type exchMove struct {
	m     dist.Move
	elems int
	done  int
}

// exchange moves elements of one parallel program from layout src to layout
// dst through the run-time system interface. Collective over comm.
//
// Large moves are streamed in chunks of at most exchangeChunkBytes, and
// the progress loop interleaves sends and receives across peers: each
// round posts the next chunk of every outgoing move, then decodes one
// arriving chunk of every incoming move straight into place, so outbound
// encode overlaps inbound decode instead of running as two serial phases.
// Deadlock freedom is inductive on rounds: sends are buffered (they never
// block on the receiver), every rank posts all its round-i chunks before
// blocking on any round-i receive, and a rank reaches round i once its
// round-(i-1) receives complete — so the chunk a receiver waits on has
// always been posted.
func exchange[T any](comm rts.Comm, codec Codec[T], src, dst dist.Layout, in []T) []T {
	rank := commRank(comm)
	// Redistributions of one shape recur (every iteration of a program's
	// main loop, typically), so the transfer plan comes from the shared
	// schedule cache; the per-rank indexes avoid rescanning sched.Moves.
	sched := dist.Cached(src, dst)
	out := make([]T, dst.Count(rank))
	// Local copies first — they need no messaging and free in for reading
	// below regardless of chunk order.
	var sends, recvs []exchMove
	for _, m := range sched.From(rank) {
		if m.To == rank {
			for _, r := range m.Runs {
				copy(out[r.DstOff:r.DstOff+r.Len], in[r.SrcOff:r.SrcOff+r.Len])
			}
			continue
		}
		if comm != nil {
			sends = append(sends, exchMove{m: m, elems: m.Elements()})
		}
	}
	if comm == nil {
		return out
	}
	for _, m := range sched.To(rank) {
		if m.From != rank {
			recvs = append(recvs, exchMove{m: m, elems: m.Elements()})
		}
	}
	elemSize := codec.ElemSize()
	if elemSize <= 0 {
		elemSize = 8
	}
	chunkElems := dist.ChunkElems(exchangeChunkBytes, elemSize)
	var scratch []dist.Run
	for {
		pending := false
		for i := range sends {
			s := &sends[i]
			if s.done >= s.elems {
				continue
			}
			pending = true
			n := s.elems - s.done
			if n > chunkElems {
				n = chunkElems
			}
			scratch = dist.SplitRuns(s.m.Runs, s.done, n, scratch[:0])
			// Send copies, so the pooled encoder is reusable the moment the
			// call completes.
			e := cdr.GetEncoder(chunkHdrBytes + n*elemSize)
			e.PutULong(uint32(s.done))
			e.PutULong(uint32(n))
			e.PutBool(s.done+n < s.elems)
			for _, r := range scratch {
				codec.Encode(e, in[r.SrcOff:r.SrcOff+r.Len])
			}
			comm.Send(s.m.To, rts.TagDSeq, e.Bytes())
			e.Release()
			s.done += n
		}
		for i := range recvs {
			r := &recvs[i]
			if r.done >= r.elems {
				continue
			}
			pending = true
			msg := comm.Recv(r.m.From, rts.TagDSeq)
			d := cdr.GetDecoder(msg.Data)
			off := int(d.GetULong())
			cnt := int(d.GetULong())
			d.GetBool() // more flag: informational, progress is counted
			// Chunks of one move arrive in offset order on the peer's FIFO
			// channel; anything else is corruption.
			if d.Err() != nil || off != r.done || cnt <= 0 || r.done+cnt > r.elems {
				panic(fmt.Sprintf("dseq: corrupt redistribution chunk from %d: off %d count %d at %d/%d",
					r.m.From, off, cnt, r.done, r.elems))
			}
			scratch = dist.SplitRuns(r.m.Runs, off, cnt, scratch[:0])
			for _, run := range scratch {
				if err := codec.DecodeInto(d, out[run.DstOff:run.DstOff+run.Len]); err != nil {
					panic(fmt.Sprintf("dseq: corrupt redistribution segment from %d: %v", r.m.From, err))
				}
			}
			d.Release()
			r.done += cnt
		}
		if !pending {
			return out
		}
	}
}

// --- ORB transfer interface -------------------------------------------------

// Distributed is the untyped view the ORB uses to ship a sequence's
// elements directly between client and server threads: it encodes and
// decodes schedule runs against local storage without knowing the element
// type.
type Distributed interface {
	// GlobalLen is the sequence's global length.
	GlobalLen() int
	// LocalLen is the calling thread's local storage size.
	LocalLen() int
	// DLayout is the current distribution.
	DLayout() dist.Layout
	// Reshape replaces the layout and (re)allocates local storage for the
	// calling thread — the receiving side of a transfer.
	Reshape(l dist.Layout)
	// EncodeRuns appends the elements of the given schedule runs, read at
	// their SrcOff positions in local storage.
	EncodeRuns(e *cdr.Encoder, runs []dist.Run)
	// DecodeRuns reads elements of the given runs into local storage at
	// their DstOff positions.
	DecodeRuns(d *cdr.Decoder, runs []dist.Run) error
	// ElemSizeHint estimates one element's encoded size in bytes (never
	// zero): the codec's fixed size, or a default for variable-size
	// elements. Transfer paths size encoder buffers and cut chunk
	// boundaries with it.
	ElemSizeHint() int
	// ElemTypeCode describes the element type.
	ElemTypeCode() *typecode.TypeCode
}

// GlobalLen implements Distributed.
func (s *DSeq[T]) GlobalLen() int { return s.layout.N }

// LocalLen implements Distributed.
func (s *DSeq[T]) LocalLen() int { return len(s.local) }

// DLayout implements Distributed.
func (s *DSeq[T]) DLayout() dist.Layout { return s.layout }

// Reshape implements Distributed.
func (s *DSeq[T]) Reshape(l dist.Layout) {
	s.layout = l
	want := l.Count(commRank(s.comm))
	if len(s.local) != want {
		s.local = make([]T, want)
	}
}

// EncodeRuns implements Distributed.
func (s *DSeq[T]) EncodeRuns(e *cdr.Encoder, runs []dist.Run) {
	for _, r := range runs {
		s.codec.Encode(e, s.local[r.SrcOff:r.SrcOff+r.Len])
	}
}

// DecodeRuns implements Distributed. Elements are decoded straight into
// local storage — no intermediate slice per run.
func (s *DSeq[T]) DecodeRuns(d *cdr.Decoder, runs []dist.Run) error {
	for _, r := range runs {
		if err := s.codec.DecodeInto(d, s.local[r.DstOff:r.DstOff+r.Len]); err != nil {
			return err
		}
	}
	return nil
}

// ElemSizeHint implements Distributed: the codec's fixed element size,
// falling back to an 8-byte estimate for variable-size elements.
func (s *DSeq[T]) ElemSizeHint() int {
	if n := s.codec.ElemSize(); n > 0 {
		return n
	}
	return 8
}

// ElemTypeCode implements Distributed.
func (s *DSeq[T]) ElemTypeCode() *typecode.TypeCode { return s.codec.TypeCode() }

var _ Distributed = (*DSeq[float64])(nil)
