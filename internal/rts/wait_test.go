package rts

import (
	"testing"

	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// TestSimDeadlineRecvWakesOnTheInstant: on the virtual clock a deadline
// receive that nothing answers ends exactly at its deadline, and one that a
// message answers ends exactly at that message's arrival — neither at the
// polling quantum after it.
func TestSimDeadlineRecvWakesOnTheInstant(t *testing.T) {
	sim := vtime.NewSim()
	// 10 µs latency and no per-byte cost: sent at 0.30 ms, arrives at 0.31 ms.
	host := simnet.NewHost("h", 1, 3, vtime.Microseconds(10), 0)
	var silentOK, answeredOK bool
	var expired, woke float64
	NewSimGroup(sim, host, 3).Spawn("w", func(th Thread) {
		switch th.Rank() {
		case 0: // nothing is ever sent to rank 0
			_, silentOK = RecvTimeout(th, 1, 5, 1.05e-3)
			expired = th.Elapsed()
		case 1:
			_, answeredOK = RecvTimeout(th, 2, 5, 1.05e-3)
			woke = th.Elapsed()
		case 2:
			th.Sleep(0.30e-3)
			th.Send(1, 5, []byte("x"))
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if silentOK || expired != 1.05e-3 {
		t.Errorf("silent 1.05 ms receive: ok=%v, returned at %.2f µs; want false at 1050.00 µs", silentOK, expired*1e6)
	}
	if !answeredOK || woke != 0.31e-3 {
		t.Errorf("answered receive: ok=%v, woke at %.2f µs; want true at 310.00 µs", answeredOK, woke*1e6)
	}
}
