package rts

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestCollectivesRoundTripProperty is the quickcheck-style gate for the
// tree collectives: random thread counts in 2..16, random payload sizes
// (nil and empty included), every trial a random root, and three
// back-to-back calls of each collective with no barrier in between — so a
// delivery that escapes its own collective's round shows up as corrupt
// bytes in the next one.
func TestCollectivesRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(15)
		root := rng.Intn(p)
		payloads := make([][]byte, p)
		for r := range payloads {
			switch rng.Intn(4) {
			case 0:
				payloads[r] = nil
			case 1:
				payloads[r] = []byte{}
			default:
				b := make([]byte, 1+rng.Intn(300))
				rng.Read(b)
				payloads[r] = b
			}
		}
		name := fmt.Sprintf("trial%d/P%d/root%d", trial, p, root)
		NewChanGroup("prop", p).Run(func(th Thread) {
			mine := payloads[th.Rank()]
			for iter := 0; iter < 3; iter++ {
				var d []byte
				if th.Rank() == root {
					d = payloads[root]
				}
				if got := Bcast(th, root, d); !bytes.Equal(got, payloads[root]) {
					panic(fmt.Sprintf("%s iter %d: bcast corrupted on rank %d", name, iter, th.Rank()))
				}
				parts := Gather(th, root, mine)
				if th.Rank() == root {
					for r, b := range parts {
						if !bytes.Equal(b, payloads[r]) {
							panic(fmt.Sprintf("%s iter %d: gather misplaced rank %d's block", name, iter, r))
						}
					}
				} else if parts != nil {
					panic(name + ": non-root got gather data")
				}
				for r, b := range AllGather(th, mine) {
					if !bytes.Equal(b, payloads[r]) {
						panic(fmt.Sprintf("%s iter %d: allgather misplaced rank %d's block at rank %d", name, iter, r, th.Rank()))
					}
				}
				for r, b := range AllGatherRing(th, mine) {
					if !bytes.Equal(b, payloads[r]) {
						panic(fmt.Sprintf("%s iter %d: ring allgather misplaced rank %d's block at rank %d", name, iter, r, th.Rank()))
					}
				}
			}
		})
	}
}

func u64bytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func sumOp(acc, in []byte) []byte {
	binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+binary.LittleEndian.Uint64(in))
	return acc
}

func TestReduceAllReduce(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		for root := 0; root < p; root++ {
			want := uint64(0)
			for r := 0; r < p; r++ {
				want += uint64(r+1) * 100
			}
			runBoth(t, p, func(th Thread) {
				mine := uint64(th.Rank()+1) * 100
				got := Reduce(th, root, u64bytes(mine), sumOp)
				if th.Rank() == root {
					if v := binary.LittleEndian.Uint64(got); v != want {
						panic(fmt.Sprintf("P%d root%d: reduce = %d, want %d", p, root, v, want))
					}
				} else if got != nil {
					panic("non-root got a reduce result")
				}
				all := AllReduce(th, u64bytes(mine), sumOp)
				if v := binary.LittleEndian.Uint64(all); v != want {
					panic(fmt.Sprintf("P%d rank%d: allreduce = %d, want %d", p, th.Rank(), v, want))
				}
			})
		}
	}
}

// TestMixedCollectivesDoNotInterleave drives different collective kinds
// back to back with varying roots and no separating barrier on both
// backends — the per-round tag derivation must keep every delivery inside
// its own collective.
func TestMixedCollectivesDoNotInterleave(t *testing.T) {
	const p = 7
	runBoth(t, p, func(th Thread) {
		for i := 0; i < 3; i++ {
			root := (i * 3) % p
			mine := []byte(fmt.Sprintf("r%d-i%d", th.Rank(), i))
			var d []byte
			if th.Rank() == root {
				d = []byte(fmt.Sprintf("root-i%d", i))
			}
			if got := Bcast(th, root, d); string(got) != fmt.Sprintf("root-i%d", i) {
				panic(fmt.Sprintf("iter %d: bcast interleaved: %q", i, got))
			}
			for r, b := range AllGather(th, mine) {
				if string(b) != fmt.Sprintf("r%d-i%d", r, i) {
					panic(fmt.Sprintf("iter %d: allgather interleaved: %q", i, b))
				}
			}
			th.Barrier()
			th.Barrier() // back-to-back barriers share per-round tags safely
			if parts := Gather(th, root, mine); th.Rank() == root {
				for r, b := range parts {
					if string(b) != fmt.Sprintf("r%d-i%d", r, i) {
						panic(fmt.Sprintf("iter %d: gather interleaved: %q", i, b))
					}
				}
			}
		}
	})
}

// TestCollectiveBufferOwnership pins the documented ownership contract:
// the root of Bcast (and every thread's own Gather/AllGather block) comes
// back as the very slice the caller passed, and a non-root's frame-aliased
// result stays byte-stable while later collectives reuse the same tag
// space — the retention regression alongside the DESIGN.md §7 rules.
func TestCollectiveBufferOwnership(t *testing.T) {
	NewChanGroup("own", 4).Run(func(th Thread) {
		mine := []byte{0xA0, byte(th.Rank()), 0x0A}
		first := Bcast(th, 0, mine)
		if th.Rank() == 0 && &first[0] != &mine[0] {
			panic("root's Bcast result is not the caller's own slice")
		}
		all := AllGather(th, mine)
		if &all[th.Rank()][0] != &mine[0] {
			panic("own AllGather block is not the caller's own slice")
		}
		snapshot := append([]byte(nil), first...)
		// Drive more traffic through the same tags with fresh buffers; the
		// retained result must not be recycled or clobbered underneath us.
		for i := 0; i < 5; i++ {
			var d []byte
			if th.Rank() == 0 {
				d = []byte{byte(i), byte(i >> 1)}
			}
			Bcast(th, 0, d)
			AllGather(th, []byte{byte(i)})
		}
		if !bytes.Equal(first, snapshot) {
			panic("retained Bcast result was clobbered by later collectives")
		}
	})
}

// TestAllGatherRingBufferOwnership extends the PR 3 retention contract to
// the ring path: a thread's own block comes back as the very slice it
// passed, and a retained result stays byte-stable while later ring rounds
// reuse the single ring tag.
func TestAllGatherRingBufferOwnership(t *testing.T) {
	NewChanGroup("own", 4).Run(func(th Thread) {
		mine := []byte{0xB0, byte(th.Rank()), 0x0B}
		all := AllGatherRing(th, mine)
		if &all[th.Rank()][0] != &mine[0] {
			panic("own AllGatherRing block is not the caller's own slice")
		}
		snapshot := make([][]byte, len(all))
		for r, b := range all {
			snapshot[r] = append([]byte(nil), b...)
		}
		// Drive more rings (and tag-sharing neighbors) with fresh buffers:
		// the retained blocks must not be recycled underneath the caller.
		for i := 0; i < 5; i++ {
			AllGatherRing(th, []byte{byte(i), byte(th.Rank())})
			AllGather(th, []byte{byte(i)})
		}
		for r := range all {
			if !bytes.Equal(all[r], snapshot[r]) {
				panic(fmt.Sprintf("retained ring block of rank %d was clobbered", r))
			}
		}
	})
}

// TestCollectiveRootValidated: an out-of-range root is a programming
// error and must panic immediately (the flat versions deadlocked instead).
func TestCollectiveRootValidated(t *testing.T) {
	th := NewChanGroup("h", 2).Thread(0)
	cases := map[string]func(){
		"bcast":  func() { Bcast(th, 2, nil) },
		"gather": func() { Gather(th, -1, nil) },
		"reduce": func() { Reduce(th, 5, nil, sumOp) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range root did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestBcastArrived: for every size and root, BcastArrived reads false at a
// non-root thread until its tree parent has sent it root's frame and true
// from then on, however often it is asked — it never consumes the frame,
// which the Bcast after it still receives. At the root it reads true. A
// parent tells its children, with a token sent after its Bcast returns,
// that their frame is on the way; the tree is worked out here on its own.
func TestBcastArrived(t *testing.T) {
	const token Tag = 1
	for p := 1; p <= 9; p++ {
		for root := 0; root < p; root++ {
			t.Run(fmt.Sprintf("P%d/root%d", p, root), func(t *testing.T) {
				g := NewChanGroup("arrived", p)
				payload := []byte(fmt.Sprintf("from %d", root))
				abs := func(rel int) int { return (rel + root) % p }
				g.Run(func(th Thread) {
					me := th.Rank()
					rel := (me - root + p) % p
					if me == root {
						if !BcastArrived(th, root) {
							t.Errorf("rank %d: false at the root", me)
						}
					} else if BcastArrived(th, root) {
						t.Errorf("rank %d: true before anything was sent", me)
					}
					th.Barrier() // nothing is sent before every rank has looked
					var data []byte
					if me == root {
						data = payload
					} else {
						parent := abs(rel & (rel - 1)) // rel with its lowest set bit cleared
						th.Recv(parent, token)
						for range 3 {
							if !BcastArrived(th, root) {
								t.Errorf("rank %d: false after its parent %d sent", me, parent)
							}
						}
					}
					if got := Bcast(th, root, data); !bytes.Equal(got, payload) {
						t.Errorf("rank %d: Bcast after BcastArrived got %q", me, got)
					}
					if me != root && BcastArrived(th, root) {
						t.Errorf("rank %d: true again after Bcast took the frame", me)
					}
					// My children are the relative ranks that clear back to me.
					for child := rel + 1; child < p; child++ {
						if child&(child-1) == rel {
							th.Send(abs(child), token, nil)
						}
					}
				})
			})
		}
	}
}
