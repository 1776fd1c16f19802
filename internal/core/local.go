package core

import (
	"fmt"
	"sync"
)

// LocalHandler executes an operation of a co-located object directly, on the
// caller's goroutine: args has one entry per parameter, in arguments as Go
// values (per the typecode mapping) and nil in every out slot, and is the
// handler's to keep; the result slice follows the usual [return?, outs...]
// convention and is the caller's to keep. The serving adapter hands the call
// to the same dispatch step as a request off the wire (poa.POA.RegisterSingle).
type LocalHandler func(op *Operation, args []any) ([]any, error)

// LocalTable is the process-local object directory enabling the paper's
// locality optimization: "PARDIS ensures that invocation on a local object
// becomes a direct call to the object, bypassing the network transport."
// Servers register their single objects here; a client ORB created with the
// same table binds to them with direct calls instead of marshaled requests.
type LocalTable struct {
	mu   sync.Mutex
	objs map[string]LocalHandler
}

// NewLocalTable creates an empty table; share one instance among the ORBs
// and POAs of a process.
func NewLocalTable() *LocalTable {
	return &LocalTable{objs: map[string]LocalHandler{}}
}

// Register publishes a co-located object's direct-call handler under its
// object key. Only objects without distributed arguments benefit; SPMD
// dispatch always goes through the request path.
func (t *LocalTable) Register(key string, h LocalHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.objs[key] = h
}

// Unregister removes an object from the table.
func (t *LocalTable) Unregister(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.objs, key)
}

func (t *LocalTable) lookup(key string) LocalHandler {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.objs[key]
}

// callLocal performs a co-located invocation and gives it the wire's outcome:
// the servant sees nil in every out slot, a servant's error arrives as the
// same server exception a reply would carry, and a oneway call, which no
// reply answers, resolves to nothing.
//
// The handler gets the call's one copy of args. A slice handed to a function
// value escapes, so passing args itself would move every caller's argument
// slice to the heap — wire calls included, which never need it there.
func (b *Binding) callLocal(op *Operation, args []any) ([]any, error) {
	in := make([]any, len(args))
	for i := range args {
		if op.Params[i].Mode != Out {
			in[i] = args[i]
		}
	}
	vals, err := b.local(op, in)
	if op.Oneway {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: server exception: %s", err)
	}
	return vals, nil
}
