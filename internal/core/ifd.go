// Package core implements the PARDIS Object Request Broker: object
// references, client bindings (single and SPMD), blocking and non-blocking
// invocation with futures, direct parallel transfer of distributed
// arguments between client and server computing threads, and the co-located
// direct-call shortcut.
//
// The server-side adapter that dispatches requests into servants lives in
// package poa; the two share this package's interface-definition and wire
// conventions.
package core

import (
	"fmt"

	"pardis/internal/dist"
	"pardis/internal/typecode"
)

// Mode is a parameter passing mode.
type Mode int

// Parameter modes, as in IDL.
const (
	In Mode = iota
	Out
	InOut
)

func (m Mode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Param describes one operation parameter. A parameter whose type is a
// dsequence is a distributed parameter; it carries the distribution
// templates both sides use (server side may be overridden before object
// registration, client side before invocation).
type Param struct {
	Name string
	Mode Mode
	Type *typecode.TypeCode

	// ServerDist is the server-side distribution template for a
	// distributed parameter (from the IDL dsequence declaration, possibly
	// overridden by the server prior to registration).
	ServerDist dist.Template
	// ClientDist is the default client-side template.
	ClientDist dist.Template
}

// Distributed reports whether the parameter is a distributed sequence.
func (p *Param) Distributed() bool {
	return p.Type != nil && p.Type.Kind == typecode.DSequence
}

// NewParam builds a Param, deriving default distribution templates from a
// dsequence typecode's IDL annotations.
func NewParam(name string, mode Mode, tc *typecode.TypeCode) Param {
	p := Param{Name: name, Mode: mode, Type: tc}
	if tc != nil && tc.Kind == typecode.DSequence {
		ct, err := dist.ParseTemplate(tc.ClientDist)
		if err != nil {
			panic(fmt.Sprintf("core: param %s: %v", name, err))
		}
		st, err := dist.ParseTemplate(tc.ServerDist)
		if err != nil {
			panic(fmt.Sprintf("core: param %s: %v", name, err))
		}
		p.ClientDist, p.ServerDist = ct, st
	}
	return p
}

// Operation describes one IDL operation.
type Operation struct {
	Name   string
	Params []Param
	Result *typecode.TypeCode // nil for void
	Oneway bool
	// Idempotent marks the operation safe to execute more than once with
	// the same arguments (IDL `idempotent` qualifier). Only idempotent
	// operations are eligible for automatic client-side retry: a retry may
	// re-execute an operation whose first reply was lost after the servant
	// already ran.
	Idempotent bool
}

// HasDistributed reports whether any parameter is distributed.
func (op *Operation) HasDistributed() bool {
	for i := range op.Params {
		if op.Params[i].Distributed() {
			return true
		}
	}
	return false
}

// Validate checks structural rules: oneway operations must be void with
// only in parameters; distributed parameters may not be inout.
func (op *Operation) Validate() error {
	if op.Oneway {
		if op.Result != nil {
			return fmt.Errorf("core: oneway operation %s cannot have a result", op.Name)
		}
		for i := range op.Params {
			if op.Params[i].Mode != In {
				return fmt.Errorf("core: oneway operation %s has %s parameter %s",
					op.Name, op.Params[i].Mode, op.Params[i].Name)
			}
		}
	}
	for i := range op.Params {
		p := &op.Params[i]
		if p.Distributed() && p.Mode == InOut {
			return fmt.Errorf("core: distributed parameter %s of %s cannot be inout", p.Name, op.Name)
		}
	}
	return nil
}

// InterfaceDef is the runtime description of an IDL interface: the
// operation table stub and skeleton code share.
type InterfaceDef struct {
	Name string
	Ops  []Operation
}

// Op looks up an operation by name.
func (i *InterfaceDef) Op(name string) (*Operation, bool) {
	if k := i.OpIndex(name); k >= 0 {
		return &i.Ops[k], true
	}
	return nil, false
}

// OpIndex returns the named operation's position in Ops, or -1 — the key
// for per-operation state kept beside the table (see Binding.opSLO).
func (i *InterfaceDef) OpIndex(name string) int {
	for k := range i.Ops {
		if i.Ops[k].Name == name {
			return k
		}
	}
	return -1
}

// Clone deep-copies the definition so per-binding distribution overrides
// don't alias the compiled-in table.
func (i *InterfaceDef) Clone() *InterfaceDef {
	out := &InterfaceDef{Name: i.Name, Ops: make([]Operation, len(i.Ops))}
	copy(out.Ops, i.Ops)
	for k := range out.Ops {
		out.Ops[k].Params = append([]Param(nil), out.Ops[k].Params...)
	}
	return out
}

// Validate checks every operation.
func (i *InterfaceDef) Validate() error {
	seen := map[string]bool{}
	for k := range i.Ops {
		if seen[i.Ops[k].Name] {
			return fmt.Errorf("core: interface %s: duplicate operation %s", i.Name, i.Ops[k].Name)
		}
		seen[i.Ops[k].Name] = true
		if err := i.Ops[k].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SetServerDist overrides the server-side distribution of an operation's
// parameter — the paper's "the server can set the distribution of any of
// the in arguments to its operations prior to object registration".
func (i *InterfaceDef) SetServerDist(op string, param int, t dist.Template) error {
	o, ok := i.Op(op)
	if !ok {
		return fmt.Errorf("core: interface %s has no operation %s", i.Name, op)
	}
	if param < 0 || param >= len(o.Params) || !o.Params[param].Distributed() {
		return fmt.Errorf("core: %s.%s parameter %d is not distributed", i.Name, op, param)
	}
	o.Params[param].ServerDist = t
	return nil
}

// resultCount reports how many values an invocation of op yields:
// the return value (if non-void) followed by each out/inout parameter.
func resultCount(op *Operation) int {
	if op.Result != nil {
		return 1 + op.OutCount()
	}
	return op.OutCount()
}

// OutCount reports how many out and inout parameters op has: the out values
// a servant returns beside its return value.
func (op *Operation) OutCount() int {
	n := 0
	for i := range op.Params {
		if op.Params[i].Mode != In {
			n++
		}
	}
	return n
}

// ResultIndex maps an out/inout parameter index to its position in the
// invocation's result values ([ret?, out0, out1, ...]). It returns -1 for
// in parameters.
func ResultIndex(op *Operation, param int) int {
	if op.Params[param].Mode == In {
		return -1
	}
	idx := 0
	if op.Result != nil {
		idx = 1
	}
	for i := 0; i < param; i++ {
		if op.Params[i].Mode != In {
			idx++
		}
	}
	return idx
}
