package bench

import "testing"

// TestCollectiveLogDepthScaling is the acceptance gate for the tree
// collectives on the simulated fabric: modeled Bcast and Barrier latency
// at P=64 must be within 3x of P=8. The flat predecessors scaled
// linearly (Bcast) or worse (AllGather), putting P64/P8 near 9x and 70x.
func TestCollectiveLogDepthScaling(t *testing.T) {
	pts := Collectives([]int{8, 64}, 4096, 10)
	checkGolden(t, "Collectives([8 64], 4096, 10)", pts)
	get := func(op string, p int) float64 {
		for _, pt := range pts {
			if pt.Op == op && pt.P == p {
				return pt.Seconds
			}
		}
		t.Fatalf("no %s point at P=%d", op, p)
		return 0
	}
	for _, op := range []string{"bcast", "barrier"} {
		r := get(op, 64) / get(op, 8)
		t.Logf("%s: P8=%.2gs P64=%.2gs ratio=%.2f", op, get(op, 8), get(op, 64), r)
		if r > 3 {
			t.Errorf("%s latency at P=64 is %.2fx P=8; log-depth bound is 3x", op, r)
		}
	}
	// AllGather's result is 8x larger at P=64, so it is bandwidth-bound,
	// not depth-bound: allow the 8x payload growth plus tree overhead.
	if r := get("allgather", 64) / get("allgather", 8); r > 16 {
		t.Errorf("allgather latency at P=64 is %.2fx P=8; bandwidth bound is ~8x (gate 16x)", r)
	}
}
