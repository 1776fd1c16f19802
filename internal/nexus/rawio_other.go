//go:build !linux

package nexus

import (
	"net"
	"syscall"
)

// rawConnOf reports no descriptor access: off Linux every connection has a
// reader goroutine.
func rawConnOf(net.Conn) syscall.RawConn { return nil }

func (r *rawReader) readFD(uintptr)        {}
func (w *rawWriter) writevFD(uintptr) bool { return true }
