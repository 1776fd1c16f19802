// Package simnet models the machines and networks of the PARDIS paper's
// testbed on top of the vtime discrete-event scheduler.
//
// The paper's experiments ran on a 4-node SGI Onyx (R4400), a 10-node SGI
// Power Challenge (R8000) and an 8-node IBM SP/2, joined by a dedicated
// 155 Mb/s ATM link (Figures 2 and 4) or Ethernet (Figure 5). Those machines
// are long gone; what the figures actually depend on is the *ratio* between
// per-host compute speeds and the latency/bandwidth of the links. This
// package captures exactly those parameters so the experiment harness can
// regenerate the figures' shapes deterministically.
package simnet

import "pardis/internal/vtime"

// Host is a parallel machine: a pool of identical nodes with a relative
// compute speed, plus an internal interconnect used by the host's own
// message-passing runtime (the paper's MPI/Tulip/POOMA layer).
type Host struct {
	Name  string
	Speed float64 // node speed relative to the reference machine (1.0)
	Nodes int

	// Internal interconnect parameters (per message).
	InternalLatency   vtime.Time
	InternalByteTime  vtime.Time // transfer time per byte
	internalResources []*vtime.Resource
}

// NewHost creates a host with n nodes of the given relative speed and a
// shared-memory-class internal interconnect (per-node NICs so intra-host
// transfers on distinct nodes can proceed in parallel).
func NewHost(name string, speed float64, n int, latency vtime.Time, bytesPerSec float64) *Host {
	h := &Host{
		Name:             name,
		Speed:            speed,
		Nodes:            n,
		InternalLatency:  latency,
		InternalByteTime: perByte(bytesPerSec),
	}
	for i := 0; i < n; i++ {
		h.internalResources = append(h.internalResources, vtime.NewResource(name+"-nic"))
	}
	return h
}

func perByte(bytesPerSec float64) vtime.Time {
	if bytesPerSec <= 0 {
		return 0
	}
	return vtime.Seconds(1 / bytesPerSec)
}

// Compute occupies the calling process for refSeconds of reference-machine
// work, scaled by the host's node speed.
func (h *Host) Compute(p *vtime.Proc, refSeconds float64) {
	p.Advance(vtime.Seconds(refSeconds / h.Speed))
}

// InternalSend models an intra-host message of the given size sent by node
// src: the sender is occupied for the wire occupancy on its NIC, and the
// function returns the virtual time at which the message arrives at the
// destination node.
func (h *Host) InternalSend(p *vtime.Proc, src, size int) (arrival vtime.Time) {
	occ := vtime.Time(size) * h.InternalByteTime
	nic := h.internalResources[src%len(h.internalResources)]
	start := nic.Acquire(p, occ)
	p.AdvanceTo(start + occ)
	return start + occ + h.InternalLatency
}

// Link is an inter-host network: a serially-reusable pipe with latency and
// bandwidth. It models the paper's single-threaded NexusLite transport: the
// sending process is occupied for the full wire occupancy of its message.
type Link struct {
	Name     string
	Latency  vtime.Time
	ByteTime vtime.Time
	res      *vtime.Resource
}

// NewLink creates a link with the given one-way latency and bandwidth in
// bytes per second.
func NewLink(name string, latency vtime.Time, bytesPerSec float64) *Link {
	return &Link{
		Name:     name,
		Latency:  latency,
		ByteTime: perByte(bytesPerSec),
		res:      vtime.NewResource(name),
	}
}

// Send models transmitting size bytes: the sender process is occupied until
// its bytes have been put on the (shared, serialized) wire; the returned
// arrival stamp additionally includes the propagation latency.
func (l *Link) Send(p *vtime.Proc, size int) (arrival vtime.Time) {
	occ := vtime.Time(size) * l.ByteTime
	start := l.res.Acquire(p, occ)
	p.AdvanceTo(start + occ)
	return start + occ + l.Latency
}

// TransferTime reports latency + occupancy for a message of the given size,
// ignoring contention.
func (l *Link) TransferTime(size int) vtime.Time {
	return l.Latency + vtime.Time(size)*l.ByteTime
}

// Busy reports the cumulative wire occupancy consumed on the link.
func (l *Link) Busy() vtime.Time { return l.res.Busy() }

// Loopback is a link-like model for co-located endpoints: a memcpy-class
// path with negligible latency, used when client and server share a host.
func Loopback(name string) *Link {
	return NewLink(name, vtime.Microseconds(5), 200e6)
}

// Testbed is a named collection of hosts and links.
type Testbed struct {
	Hosts map[string]*Host
	Links map[string]*Link
}

// Bandwidth helpers.
const (
	Mbit = 1e6 / 8 // bytes per second in one megabit/s
)

// PaperTestbed builds the machines and networks of the SC'97 evaluation.
//
// Relative node speeds are calibrated from the era's LINPACK-class ratios:
// the 200 MHz R4400 Onyx node is the 1.0 reference; the 75 MHz R8000 Power
// Challenge node is ~2.5x on dense FP; an SP/2 P2SC-class node ~2.0x.
// The ATM link is the paper's dedicated 155 Mb/s (~2 ms end-to-end latency
// for the protocol stack of the day); Ethernet is shared 10 Mb/s.
func PaperTestbed() *Testbed {
	tb := &Testbed{Hosts: map[string]*Host{}, Links: map[string]*Link{}}
	add := func(h *Host) { tb.Hosts[h.Name] = h }
	add(NewHost("onyx", 1.0, 4, vtime.Microseconds(30), 80e6))             // HOST 1: 4-node SGI Onyx R4400
	add(NewHost("powerchallenge", 2.5, 10, vtime.Microseconds(25), 100e6)) // HOST 2: 10-node SGI PC R8000
	add(NewHost("sp2", 2.0, 8, vtime.Microseconds(40), 35e6))              // 8 nodes of IBM SP/2
	add(NewHost("indy", 0.8, 1, vtime.Microseconds(30), 80e6))             // SGI Indy workstation (visualizer)
	tb.Links["atm"] = NewLink("atm", vtime.Milliseconds(2), 155*Mbit)
	tb.Links["ethernet"] = NewLink("ethernet", vtime.Milliseconds(1.2), 10*Mbit)
	return tb
}

// Host returns the named host, panicking if absent (configuration error).
func (tb *Testbed) Host(name string) *Host {
	h, ok := tb.Hosts[name]
	if !ok {
		panic("simnet: unknown host " + name)
	}
	return h
}

// Link returns the named link, panicking if absent (configuration error).
func (tb *Testbed) Link(name string) *Link {
	l, ok := tb.Links[name]
	if !ok {
		panic("simnet: unknown link " + name)
	}
	return l
}
