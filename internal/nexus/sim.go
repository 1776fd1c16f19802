package nexus

import (
	"fmt"

	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// SimFabric is the virtual-time transport: endpoints are bound to vtime
// processes placed on simnet hosts, and frames pay the modeled cost of the
// link between the two hosts. Co-located endpoints communicate over a
// per-host loopback path — this is how the paper's "invocation on a local
// object becomes a direct call" shows up in modeled time.
type SimFabric struct {
	sim      *vtime.Sim
	next     int
	eps      map[Addr]*simEP
	routes   map[[2]string]*simnet.Link
	loopback map[string]*simnet.Link
}

// NewSimFabric creates a fabric on the given simulation.
func NewSimFabric(sim *vtime.Sim) *SimFabric {
	return &SimFabric{
		sim:      sim,
		eps:      map[Addr]*simEP{},
		routes:   map[[2]string]*simnet.Link{},
		loopback: map[string]*simnet.Link{},
	}
}

// Connect routes traffic between two hosts over the given link (both
// directions).
func (f *SimFabric) Connect(hostA, hostB string, link *simnet.Link) {
	f.routes[[2]string{hostA, hostB}] = link
	f.routes[[2]string{hostB, hostA}] = link
}

// linkFor picks the route between two hosts, creating the loopback path for
// co-located endpoints.
func (f *SimFabric) linkFor(a, b string) (*simnet.Link, error) {
	if a == b {
		lb, ok := f.loopback[a]
		if !ok {
			lb = simnet.Loopback("loopback-" + a)
			f.loopback[a] = lb
		}
		return lb, nil
	}
	if l, ok := f.routes[[2]string{a, b}]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("%w: no link between %s and %s", ErrNoRoute, a, b)
}

// NewEndpoint creates an endpoint owned by proc p, located on host.
// All the endpoint's methods must be called from p's goroutine; its
// arrivals end p's Await.
func (f *SimFabric) NewEndpoint(name string, p *vtime.Proc, host *simnet.Host) Endpoint {
	f.next++
	ep := &simEP{
		fabric: f,
		addr:   Addr(fmt.Sprintf("sim://%s/%s/%d", host.Name, name, f.next)),
		p:      p,
		host:   host,
		inbox:  vtime.NewChan(f.sim, name+"-inbox"),
	}
	p.Watch(ep.inbox)
	f.eps[ep.addr] = ep
	return ep
}

type simEP struct {
	fabric *SimFabric
	addr   Addr
	p      *vtime.Proc
	host   *simnet.Host
	inbox  *vtime.Chan
	closed bool
}

func (e *simEP) Addr() Addr { return e.addr }

// SendV implements Endpoint with slice-concat semantics: the fabric copies
// anyway (the receiver keeps the frame), so vectored sends concatenate into
// the frame allocation and nothing retains the caller's buffers.
func (e *simEP) SendV(to Addr, bufs ...[]byte) error {
	return e.Send(to, concat(bufs))
}

func (e *simEP) Send(to Addr, data []byte) error {
	if e.closed {
		return ErrClosed
	}
	dst, ok := e.fabric.eps[to]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoute, to)
	}
	link, err := e.fabric.linkFor(e.host.Name, dst.host.Name)
	if err != nil {
		return err
	}
	// Single-threaded transport: the sender is occupied for the wire
	// occupancy (Link.Send advances e.p), plus a fixed per-request
	// software overhead for marshaling/dispatch.
	e.p.Advance(vtime.Microseconds(50))
	arrival := link.Send(e.p, len(data)+64) // 64 B protocol framing
	e.p.SendAt(dst.inbox, Frame{From: e.addr, Data: data}, arrival)
	return nil
}

func (e *simEP) Recv() (Frame, error) {
	if e.closed {
		return Frame{}, ErrClosed
	}
	v := e.p.Recv(e.inbox)
	return v.(Frame), nil
}

func (e *simEP) Poll() (Frame, bool, error) {
	if e.closed {
		return Frame{}, false, ErrClosed
	}
	v, ok := e.p.Poll(e.inbox, nil)
	if !ok {
		return Frame{}, false, nil
	}
	return v.(Frame), true, nil
}

func (e *simEP) Close() error {
	e.closed = true
	delete(e.fabric.eps, e.addr)
	return nil
}
