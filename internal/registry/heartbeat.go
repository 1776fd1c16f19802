package registry

import (
	"time"

	"pardis/internal/core"
	"pardis/internal/vtime"
)

// Heartbeat is a background reporter pushing one replica's load snapshots
// to a repository on a fixed period. It is the real-fabric helper (its loop
// sleeps wall time); simulation programs pace their own vtime loops and
// call Client.ReportLoad directly.
type Heartbeat struct {
	stop chan struct{}
	done chan struct{}
}

// StartHeartbeat registers the member and then, every period seconds until
// Stop, snapshots snap() and reports it: the digest rides the report, and
// its P95/Depth double as the load signal. Pair with AdapterDigest for the
// usual one-POA replica. The Client must be dedicated to the heartbeat
// goroutine — bindings are owned by one thread — and its deadline is set to
// the period so a dead repository costs one beat, never a wedge. A report
// answered with "unknown member" (the repository expired us during a
// partition) re-registers on the next beat. Errors are absorbed: a replica
// that cannot reach its repository keeps serving and keeps trying.
func StartHeartbeat(c *Client, name, memberID string, ior core.IOR, period float64, snap func() Digest) *Heartbeat {
	c.SetDeadline(period)
	h := &Heartbeat{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		registered := false
		if err := c.RegisterMember(name, memberID, ior); err == nil {
			registered = true
		}
		tick := time.NewTicker(vtime.Wall(period))
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			if !registered {
				if err := c.RegisterMember(name, memberID, ior); err != nil {
					continue
				}
				registered = true
			}
			d := snap()
			known, err := c.ReportLoad(name, memberID, d.P95, d.Depth, d.Encode())
			if err == nil && !known {
				registered = false
			}
		}
	}()
	return h
}

// Stop ends the reporting loop and waits for it to exit. The member is left
// registered; it ages out of the repository after the TTL (or is removed
// explicitly with UnregisterMember).
func (h *Heartbeat) Stop() {
	close(h.stop)
	<-h.done
}
