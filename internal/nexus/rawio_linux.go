package nexus

import (
	"io"
	"net"
	"syscall"
	"unsafe"
)

// rawConnOf returns c's descriptor access, or nil when c has none (a pipe,
// a test double): such a connection is never read in place.
func rawConnOf(c net.Conn) syscall.RawConn {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return rc
}

// readFD is rawReader's callback: one read of what has arrived, or with
// peek a look at it, which reports io.EOF only when the peer has closed and
// nothing is left to read.
func (r *rawReader) readFD(fd uintptr) {
	for {
		var n int
		var err error
		if r.peek {
			n, _, err = syscall.Recvfrom(int(fd), r.p, syscall.MSG_PEEK)
		} else {
			n, err = syscall.Read(int(fd), r.p)
		}
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			r.err = errWouldBlock
		case err != nil:
			r.err = err
		case n == 0:
			r.err = io.EOF
		default:
			r.n = n
		}
		return
	}
}

// writevFD is rawWriter's callback: writev(2) until the buffers are out or
// the socket's send buffer is full, consuming what went.
func (w *rawWriter) writevFD(fd uintptr) bool {
	for len(*w.bufs) > 0 {
		var iov [64]syscall.Iovec
		k := 0
		for _, b := range *w.bufs {
			if k == len(iov) {
				break
			}
			if len(b) > 0 {
				iov[k].Base = &b[0]
				iov[k].SetLen(len(b))
				k++
			}
		}
		if k == 0 {
			*w.bufs = nil
			break
		}
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(k))
		switch errno {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if w.wait {
				return false // RawConn waits for room and calls again
			}
			w.err = errWouldBlock
			return true
		default:
			w.err = errno
			return true
		}
		for m := int(n); m > 0; { // consume, as net.Buffers.WriteTo does
			b := (*w.bufs)[0]
			if len(b) > m {
				(*w.bufs)[0] = b[m:]
				break
			}
			m -= len(b)
			(*w.bufs)[0] = nil
			*w.bufs = (*w.bufs)[1:]
		}
	}
	return true
}
