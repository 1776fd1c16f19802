package core

import "runtime"

// fanWidth is the worker count for one segment transfer of the given move
// count: pin if positive, else one worker per move up to the processors
// available (see TransferPolicy).
//
// safe is Router.ConcurrentSendSafe; widths above 1 are never used on an
// unsafe fabric regardless of pin, which keeps the Sim fabric — whose
// virtual-time discipline is single-threaded — byte-identical.
func fanWidth(pin int, safe bool, moves int) int {
	if !safe {
		return 1
	}
	if pin > 0 {
		return pin
	}
	return min(moves, runtime.GOMAXPROCS(0))
}
