package core

import (
	"fmt"
	"sync"

	"pardis/internal/future"
)

// LocalHandler executes an operation of a co-located object directly: in
// arguments arrive as Go values (per the typecode mapping), and the result
// slice follows the usual [return?, outs...] convention.
type LocalHandler func(op *Operation, args []any) ([]any, error)

// LocalTable is the process-local object directory enabling the paper's
// locality optimization: "PARDIS ensures that invocation on a local object
// becomes a direct call to the object, bypassing the network transport."
// Servers register their single objects here; a client ORB created with the
// same table binds to them with direct calls instead of marshaled requests.
type LocalTable struct {
	mu   sync.Mutex
	objs map[string]*localObject
}

// NewLocalTable creates an empty table; share one instance among the ORBs
// and POAs of a process.
func NewLocalTable() *LocalTable {
	return &LocalTable{objs: map[string]*localObject{}}
}

// Register publishes a co-located object's direct-call handler under its
// object key. Only objects without distributed arguments benefit; SPMD
// dispatch always goes through the request path.
func (t *LocalTable) Register(key string, h LocalHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.objs[key] = &localObject{handler: h}
}

// Unregister removes an object from the table.
func (t *LocalTable) Unregister(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.objs, key)
}

func (t *LocalTable) lookup(key string) *localObject {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.objs[key]
}

type localObject struct {
	handler LocalHandler
}

// call performs the direct invocation, producing an already-resolved cell
// so callers are oblivious to the shortcut.
func (l *localObject) call(op *Operation, args []any) *future.Cell {
	// Only in/inout values reach the handler, mirroring the wire path.
	in := make([]any, len(args))
	for i := range args {
		if op.Params[i].Mode != Out {
			in[i] = args[i]
		}
	}
	cell := future.NewCell()
	vals, err := l.handler(op, in)
	if err != nil {
		cell.Resolve(nil, fmt.Errorf("core: server exception: %s", err))
		return cell
	}
	cell.Resolve(vals, nil)
	return cell
}
