package nexus

import (
	"io"
	"net"
	"testing"
)

// TestSendFrameAllocFree pins the send-side framing cost on every combiner
// path: once the per-connection scratch is warm, a frame reaches the socket
// without allocating — the large path through the reusable iovec, the small
// path through the pending-batch buffer, whether its sender writes it or
// defers it to the flusher (whose own allocations would count here too).
func TestSendFrameAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	c1, c2 := net.Pipe()
	go io.Copy(io.Discard, c2) //nolint:errcheck // drained until pipe closes
	tc := newTCPConn(nil, c1, "alloc-test")
	defer tc.fail(io.ErrClosedPipe) // closes the pipe and ends the flusher
	hdr := make([]byte, 16)
	large := make([]byte, TCPCoalesceLimit+1) // strictly above the copy limit
	small := make([]byte, 48)
	for _, tt := range []struct {
		name    string
		payload []byte
		busy    bool
	}{
		{"large-vectored", large, false},
		{"small-coalesced", small, false},
		{"small-deferred", small, true},
	} {
		// Warm-up grows the scratch (for the deferred case: starts the
		// flusher and sizes both halves of the ping-ponged batch buffer for
		// a run's worth of frames); steady state reuses it.
		for i := 0; i < 64; i++ {
			if err := tc.sendFrame(1, 2, [][]byte{hdr, tt.payload}, tt.busy); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.sendFrame(1, 2, [][]byte{hdr, tt.payload}, tt.busy); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s frame write: %v allocs/run, want 0", tt.name, allocs)
		}
	}
}

// TestSendVMatchesSend checks the vectored path produces the same frame as
// a single-buffer send on every fabric-independent property we can see from
// the receive side: one frame, concatenated content.
func TestSendVMatchesSend(t *testing.T) {
	f := NewInproc()
	a := f.NewEndpoint("a")
	b := f.NewEndpoint("b")
	defer a.Close()
	defer b.Close()
	if err := a.SendV(b.Addr(), []byte("hel"), nil, []byte("lo")); err != nil {
		t.Fatal(err)
	}
	fr, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(fr.Data) != "hello" {
		t.Fatalf("vectored frame arrived as %q", fr.Data)
	}
}
