package nexus

import "pardis/internal/obs"

// Transport instrumentation on the default registry. The connection gauge
// is the headline number for the fan-in figure: it stays at a handful of
// sockets while the live-channel count climbs into the hundreds of
// thousands.
var (
	tcpConnsLive        = obs.Default.MustGauge("nexus_tcp_connections_live")
	tcpBytesIn          = obs.Default.MustCounter("nexus_tcp_bytes_in_total")
	tcpBytesOut         = obs.Default.MustCounter("nexus_tcp_bytes_out_total")
	tcpCoalescedFlushes = obs.Default.MustCounter("nexus_tcp_coalesced_flushes_total")
	tcpCoalescedFrames  = obs.Default.MustCounter("nexus_tcp_coalesced_frames_total")
	// Every small-frame socket write, lone or batched, by a sender, the
	// flusher or Close. The coalesced pair counts only multi-frame writes,
	// so small frames sent = coalesced_frames + (flushes - coalesced_flushes)
	// and frames per write over all writes is that over flushes.
	tcpFlushes = obs.Default.MustCounter("nexus_tcp_flushes_total")
	// Frames their sender left in the pending batch for a later flush
	// (SendV returned before they reached the socket).
	tcpDeferredFrames = obs.Default.MustCounter("nexus_tcp_deferred_frames_total")
	// Frames their channel's owner read off the connection itself, and
	// connections whose reading went from the owner to a reader goroutine
	// (DESIGN.md §12, "Who reads a frame").
	tcpReadInPlace  = obs.Default.MustCounter("nexus_tcp_frames_read_in_place_total")
	tcpReadHandoffs = obs.Default.MustCounter("nexus_tcp_read_handoffs_total")
	// Polls that read a connection in place and found no whole frame: the
	// read(2)s a wait that follows would have made anyway (PollQueued).
	tcpPollsEmpty = obs.Default.MustCounter("nexus_tcp_polls_empty_total")
)
