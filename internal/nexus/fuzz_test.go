package nexus

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// streamConn is an accepted connection whose peer wrote a fixed byte stream
// and closed: splitConn's Read drains it, and the two other methods a reader
// goroutine calls on its connection are accepted.
type streamConn struct {
	splitConn
	closed bool
}

func (c *streamConn) Close() error                    { c.closed = true; return nil }
func (c *streamConn) SetReadDeadline(time.Time) error { return nil }

// wireBytes is what a real connection writes for the given sends: the frames
// go through sendFrame and are read back off the other end of a pipe.
func wireBytes(tb testing.TB, send func(tc *tcpConn)) []byte {
	tb.Helper()
	c1, c2 := net.Pipe()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(c2)
		got <- b
	}()
	send(newTCPConn(nil, c1, "peer"))
	c1.Close()
	return <-got
}

// FuzzFrameStream feeds arbitrary bytes to the accepted side of a transport
// that has one channel, as a dialer that writes them and closes would. The
// connection is no socket, so it is never read in place and its reader
// goroutine reads it to the end — through frameReader, the one frame reader
// a read in place uses too. The reader must survive them: no panic, it ends when the stream does (it is
// run here, not spawned, so a reader that outlived its connection would hang
// the target), it leaves no connection registered, and it allocates nothing
// for a first frame longer than a hello may be — an anonymous peer does not
// get to size our allocations.
func FuzzFrameStream(f *testing.F) {
	t, err := NewTCPTransport("")
	if err != nil {
		f.Fatal(err)
	}
	defer t.Close()
	ch := t.NewChannel().(*tcpChan)
	hello := func(tc *tcpConn) { tc.sendFrame(0, 0, [][]byte{[]byte("tcp://127.0.0.1:4242")}, false) }
	f.Add(wireBytes(f, hello))
	f.Add(wireBytes(f, func(tc *tcpConn) {
		hello(tc)
		tc.sendFrame(ch.id, 7, [][]byte{[]byte("a request"), []byte(" in two buffers")}, false)
		tc.sendFrame(ch.id+1, 7, [][]byte{[]byte("for a channel that is not there")}, false)
	}))
	f.Add(wireBytes(f, func(tc *tcpConn) { tc.sendFrame(ch.id, 7, [][]byte{[]byte("no hello first")}, false) }))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame)) // the 256 MiB announcement
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})                  // shorter than a mux header
	f.Fuzz(func(ft *testing.T, stream []byte) {
		// Frames of a named connection may be as long as maxFrame and are
		// allocated as announced; that bound is not this target's subject,
		// so a stream that announces far more than it carries is skipped
		// once past its hello.
		for rest, first := stream, true; len(rest) >= 4; first = false {
			n := int(binary.BigEndian.Uint32(rest))
			if !first && n > len(rest) && n > 1<<16 {
				ft.Skip()
			}
			if n > len(rest)-4 {
				break
			}
			rest = rest[4+n:]
		}
		oversized := len(stream) >= 4 && binary.BigEndian.Uint32(stream) > maxHello
		var before runtime.MemStats
		if oversized {
			runtime.ReadMemStats(&before)
		}
		c := &streamConn{splitConn: splitConn{stream: stream}}
		t.mu.Lock()
		t.anon[c] = true // as acceptLoop registers it
		t.mu.Unlock()
		t.readLoop(c, nil)
		if oversized {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			// The constant is the reader's own buffer and the error, with
			// room for whatever else the process allocated meanwhile.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > maxHello+64<<10 {
				ft.Errorf("first frame announced %d bytes and the reader allocated %d", binary.BigEndian.Uint32(stream), grew)
			}
		}
		t.mu.Lock()
		anon, conns := len(t.anon), len(t.conns)
		t.mu.Unlock()
		if !c.closed || anon != 0 || conns != 0 {
			ft.Errorf("reader returned with closed=%v, %d anonymous and %d named connections registered", c.closed, anon, conns)
		}
		for { // what reached the channel is dropped, so the inbox stays small
			if _, ok, _ := ch.Poll(); !ok {
				break
			}
		}
	})
}

// FuzzSplitTCPAddr: the address parser sees the payload of every hello and
// the destination of every send. It must not panic, what it accepts must be
// tcp://hostport[/decimal id] with nothing dropped, and — unless the host
// part is itself malformed enough to contain a slash — the address
// tcpChanAddr renders for the result must parse back to it.
func FuzzSplitTCPAddr(f *testing.F) {
	f.Add(string(tcpChanAddr("127.0.0.1:4242", 0)))
	f.Add(string(tcpChanAddr("127.0.0.1:4242", 7)))
	f.Add("tcp://[::1]:9/4294967295")
	f.Add("tcp://host:1/4294967296")
	f.Add("tcp://host:1/")
	f.Add("tcp:////0")
	f.Add("inproc://x/1")
	f.Fuzz(func(t *testing.T, s string) {
		hostport, id, err := splitTCPAddr(Addr(s))
		if err != nil {
			return
		}
		rest, ok := strings.CutPrefix(s, "tcp://"+hostport)
		want := uint64(0) // no channel part is channel 0
		if ok && rest != "" {
			var perr error
			want, perr = strconv.ParseUint(strings.TrimPrefix(rest, "/"), 10, 32)
			ok = rest[0] == '/' && perr == nil
		}
		if !ok || uint64(id) != want {
			t.Fatalf("%q parsed as (%q, %d)", s, hostport, id)
		}
		if strings.Contains(hostport, "/") {
			return
		}
		if h2, id2, err := splitTCPAddr(tcpChanAddr(hostport, id)); err != nil || h2 != hostport || id2 != id {
			t.Fatalf("%q parsed as (%q, %d), which renders as %q and parses as (%q, %d, %v)",
				s, hostport, id, tcpChanAddr(hostport, id), h2, id2, err)
		}
	})
}
