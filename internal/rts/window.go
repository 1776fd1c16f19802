package rts

import "sync"

// Window is an optional RTS capability: a one-sided shared store the
// distributed-sequence runtime uses for location-transparent element access
// (the paper's operator[]). ChanGroup and SimGroup run the computing threads
// of one parallel program inside a single OS process, so a shared store is
// the natural analog of the one-sided run-time systems the paper names as
// future work; the simulated backend charges a modeled remote-access cost.
//
// Backends that cannot support it simply don't implement the interface, and
// DSeq.At degrades to owned-data-only access — matching the paper's remark
// that restricting RTS assumptions "limits the functionality of distributed
// argument structures".
type Window interface {
	// WinAlloc collectively allocates a fresh window id; every thread of
	// the program receives the same id. Collective.
	WinAlloc() uint64
	// WinPut publishes this thread's storage for the window.
	WinPut(id uint64, rank int, data any)
	// WinGet reads the storage another thread published. It charges the
	// backend's modeled remote-access cost when bytes > 0.
	WinGet(id uint64, rank int, bytes int) any
}

type winKey struct {
	id   uint64
	rank int
}

// winStore is the shared map behind both groups' Window implementations.
type winStore struct {
	mu     sync.Mutex
	nextID uint64
	data   map[winKey]any
}

func newWinStore() *winStore {
	return &winStore{data: map[winKey]any{}}
}

func (w *winStore) put(id uint64, rank int, v any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.data[winKey{id, rank}] = v
}

func (w *winStore) get(id uint64, rank int) any {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.data[winKey{id, rank}]
}

// allocID implements WinAlloc over any Comm: rank 0 draws from the shared
// counter and broadcasts, so every thread agrees on the id.
func (w *winStore) allocID(c Comm) uint64 {
	var id uint64
	if c.Rank() == 0 {
		w.mu.Lock()
		w.nextID++
		id = w.nextID
		w.mu.Unlock()
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(id >> (8 * i))
		}
		Bcast(c, 0, buf)
		return id
	}
	buf := Bcast(c, 0, nil)
	for i := 0; i < 8; i++ {
		id |= uint64(buf[i]) << (8 * i)
	}
	return id
}
