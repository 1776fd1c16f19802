package idl

import (
	"fmt"
	"strings"

	"pardis/internal/typecode"
)

// Spec is the semantic model of a compilation unit: every declaration
// resolved to typecodes, constants evaluated, interfaces flattened.
type Spec struct {
	Consts     []ConstInfo
	Typedefs   []TypedefInfo
	Structs    []*typecode.TypeCode
	Enums      []*typecode.TypeCode
	Unions     []*typecode.TypeCode
	Exceptions []ExceptionInfo
	Interfaces []InterfaceInfo
}

// ConstInfo is an evaluated constant.
type ConstInfo struct {
	Name  string
	TC    *typecode.TypeCode
	Value int64
}

// TypedefInfo is a named type with its package-mapping pragmas.
type TypedefInfo struct {
	Name    string
	TC      *typecode.TypeCode
	Pragmas []Pragma
}

// ExceptionInfo is a declared exception.
type ExceptionInfo struct {
	Name string
	TC   *typecode.TypeCode // struct-shaped
}

// InterfaceInfo is a resolved interface with inherited operations merged.
type InterfaceInfo struct {
	Name  string
	Bases []string
	Ops   []OpInfo
}

// OpInfo is a resolved operation.
type OpInfo struct {
	Name       string
	Oneway     bool
	Idempotent bool
	Ret        *typecode.TypeCode // nil = void
	Params     []ParamInfo
	Raises     []string
}

// ParamInfo is a resolved parameter. TypeName records the typedef through
// which the type was written, which is what pragma-directed package
// mappings key on.
type ParamInfo struct {
	Name     string
	Dir      string
	TC       *typecode.TypeCode
	TypeName string
}

// Distributed reports whether the parameter is a distributed sequence.
func (p ParamInfo) Distributed() bool { return p.TC.Kind == typecode.DSequence }

type scope struct {
	prefix string // "" at top level, "Mod::" inside module Mod
}

type checker struct {
	consts   map[string]ConstInfo
	types    map[string]*typecode.TypeCode
	typedefs map[string]*TypedefInfo
	excs     map[string]ExceptionInfo
	ifaces   map[string]*InterfaceInfo
	spec     *Spec
	stack    []scope
}

// Analyze resolves a parsed file into a Spec.
func Analyze(f *File) (*Spec, error) {
	c := &checker{
		consts:   map[string]ConstInfo{},
		types:    map[string]*typecode.TypeCode{},
		typedefs: map[string]*TypedefInfo{},
		excs:     map[string]ExceptionInfo{},
		ifaces:   map[string]*InterfaceInfo{},
		spec:     &Spec{},
		stack:    []scope{{}},
	}
	if err := c.defs(f.Defs); err != nil {
		return nil, err
	}
	return c.spec, nil
}

// Compile parses and analyzes in one step.
func Compile(src string) (*Spec, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(f)
}

func (c *checker) qualify(name string) string {
	return c.stack[len(c.stack)-1].prefix + name
}

// lookup resolves a name against enclosing scopes, innermost first.
func lookupIn[T any](c *checker, m map[string]T, name string) (T, bool) {
	for i := len(c.stack) - 1; i >= 0; i-- {
		if v, ok := m[c.stack[i].prefix+name]; ok {
			return v, true
		}
	}
	v, ok := m[name] // fully-qualified reference
	return v, ok
}

func (c *checker) define(kind, name string) error {
	q := c.qualify(name)
	if _, ok := c.types[q]; ok {
		return fmt.Errorf("idl: duplicate definition of %s", q)
	}
	if _, ok := c.consts[q]; ok {
		return fmt.Errorf("idl: duplicate definition of %s", q)
	}
	if _, ok := c.ifaces[q]; ok {
		return fmt.Errorf("idl: duplicate definition of %s", q)
	}
	if _, ok := c.excs[q]; ok {
		return fmt.Errorf("idl: duplicate definition of %s", q)
	}
	_ = kind
	return nil
}

func (c *checker) defs(defs []Def) error {
	for _, d := range defs {
		if err := c.def(d); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) def(d Def) error {
	switch d := d.(type) {
	case *Module:
		c.stack = append(c.stack, scope{prefix: c.qualify(d.Name) + "::"})
		err := c.defs(d.Defs)
		c.stack = c.stack[:len(c.stack)-1]
		return err
	case *ConstDecl:
		return c.constDecl(d)
	case *TypedefDecl:
		return c.typedefDecl(d)
	case *StructDecl:
		return c.structDecl(d)
	case *EnumDecl:
		return c.enumDecl(d)
	case *ExceptionDecl:
		return c.exceptionDecl(d)
	case *UnionDecl:
		return c.unionDecl(d)
	case *InterfaceDecl:
		return c.interfaceDecl(d)
	}
	return fmt.Errorf("idl: unhandled definition %T", d)
}

func (c *checker) constDecl(d *ConstDecl) error {
	if err := c.define("const", d.Name); err != nil {
		return err
	}
	tc, err := c.resolve(d.Type, false)
	if err != nil {
		return fmt.Errorf("idl: const %s: %w", d.Name, err)
	}
	switch tc.Kind {
	case typecode.Short, typecode.UShort, typecode.Long, typecode.ULong,
		typecode.LongLong, typecode.ULongLong, typecode.Octet:
	default:
		return fmt.Errorf("idl: const %s: only integer constants are supported, not %v", d.Name, tc)
	}
	v, err := c.eval(d.Expr)
	if err != nil {
		return fmt.Errorf("idl: const %s: %w", d.Name, err)
	}
	info := ConstInfo{Name: c.qualify(d.Name), TC: tc, Value: v}
	c.consts[info.Name] = info
	c.spec.Consts = append(c.spec.Consts, info)
	return nil
}

func (c *checker) eval(e Expr) (int64, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, nil
	case *Ref:
		ci, ok := lookupIn(c, c.consts, e.Name)
		if !ok {
			return 0, fmt.Errorf("undefined constant %s", e.Name)
		}
		return ci.Value, nil
	case *Unary:
		x, err := c.eval(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "-":
			return -x, nil
		case "~":
			return ^x, nil
		}
		return 0, fmt.Errorf("bad unary operator %s", e.Op)
	case *Binary:
		l, err := c.eval(e.L)
		if err != nil {
			return 0, err
		}
		r, err := c.eval(e.R)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return l % r, nil
		case "<<":
			return l << uint(r), nil
		case ">>":
			return l >> uint(r), nil
		case "|":
			return l | r, nil
		case "&":
			return l & r, nil
		case "^":
			return l ^ r, nil
		}
		return 0, fmt.Errorf("bad binary operator %s", e.Op)
	}
	return 0, fmt.Errorf("bad constant expression %T", e)
}

var basicTCs = map[string]*typecode.TypeCode{
	"boolean": typecode.TCBool, "octet": typecode.TCOctet, "char": typecode.TCChar,
	"short": typecode.TCShort, "unsigned short": typecode.TCUShort,
	"long": typecode.TCLong, "unsigned long": typecode.TCULong,
	"long long": typecode.TCLongLong, "unsigned long long": typecode.TCULongLong,
	"float": typecode.TCFloat, "double": typecode.TCDouble, "string": typecode.TCString,
}

// resolve turns a syntactic type into a typecode. allowDSeq gates where
// distributed sequences may appear (operation parameters and typedefs, not
// struct members or sequence elements).
func (c *checker) resolve(t Type, allowDSeq bool) (*typecode.TypeCode, error) {
	switch t := t.(type) {
	case *BasicType:
		if t.Name == "void" {
			return nil, fmt.Errorf("void is only valid as an operation result")
		}
		tc, ok := basicTCs[t.Name]
		if !ok {
			return nil, fmt.Errorf("unknown basic type %q", t.Name)
		}
		return tc, nil
	case *NamedType:
		if tc, ok := lookupIn(c, c.types, t.Name); ok {
			if tc.Kind == typecode.DSequence && !allowDSeq {
				return nil, fmt.Errorf("distributed sequence %s not allowed here", t.Name)
			}
			return tc, nil
		}
		if ii, ok := lookupIn(c, c.ifaces, t.Name); ok {
			return typecode.ObjRefOf(ii.Name), nil
		}
		return nil, fmt.Errorf("undefined type %s", t.Name)
	case *SeqType:
		elem, err := c.resolve(t.Elem, false)
		if err != nil {
			return nil, err
		}
		bound, err := c.bound(t.Bound)
		if err != nil {
			return nil, err
		}
		return typecode.SequenceOf(elem, bound), nil
	case *DSeqType:
		if !allowDSeq {
			return nil, fmt.Errorf("distributed sequence not allowed here")
		}
		elem, err := c.resolve(t.Elem, false)
		if err != nil {
			return nil, err
		}
		bound, err := c.bound(t.Bound)
		if err != nil {
			return nil, err
		}
		return typecode.DSequenceOf(elem, bound, t.ClientDist, t.ServerDist), nil
	}
	return nil, fmt.Errorf("unhandled type %T", t)
}

func (c *checker) bound(e Expr) (int, error) {
	if e == nil {
		return 0, nil
	}
	v, err := c.eval(e)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("sequence bound must be positive, got %d", v)
	}
	return int(v), nil
}

func (c *checker) typedefDecl(d *TypedefDecl) error {
	if err := c.define("typedef", d.Name); err != nil {
		return err
	}
	tc, err := c.resolve(d.Type, true)
	if err != nil {
		return fmt.Errorf("idl: typedef %s: %w", d.Name, err)
	}
	for _, prag := range d.Pragmas {
		if tc.Kind != typecode.DSequence {
			return fmt.Errorf("idl: typedef %s: #pragma %s:%s applies only to dsequence typedefs",
				d.Name, prag.Package, prag.Target)
		}
	}
	q := c.qualify(d.Name)
	c.types[q] = tc
	info := TypedefInfo{Name: q, TC: tc, Pragmas: d.Pragmas}
	c.typedefs[q] = &info
	c.spec.Typedefs = append(c.spec.Typedefs, info)
	return nil
}

func (c *checker) members(owner string, ms []Member) ([]typecode.Field, error) {
	var fields []typecode.Field
	seen := map[string]bool{}
	for _, m := range ms {
		tc, err := c.resolve(m.Type, false)
		if err != nil {
			return nil, fmt.Errorf("idl: %s: %w", owner, err)
		}
		for _, n := range m.Names {
			if seen[n] {
				return nil, fmt.Errorf("idl: %s: duplicate member %s", owner, n)
			}
			seen[n] = true
			fields = append(fields, typecode.Field{Name: n, Type: tc})
		}
	}
	return fields, nil
}

func (c *checker) structDecl(d *StructDecl) error {
	if err := c.define("struct", d.Name); err != nil {
		return err
	}
	fields, err := c.members("struct "+d.Name, d.Members)
	if err != nil {
		return err
	}
	q := c.qualify(d.Name)
	tc := typecode.StructOf(q, fields...)
	c.types[q] = tc
	c.spec.Structs = append(c.spec.Structs, tc)
	return nil
}

func (c *checker) enumDecl(d *EnumDecl) error {
	if err := c.define("enum", d.Name); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, l := range d.Labels {
		if seen[l] {
			return fmt.Errorf("idl: enum %s: duplicate label %s", d.Name, l)
		}
		seen[l] = true
	}
	q := c.qualify(d.Name)
	tc := typecode.EnumOf(q, d.Labels...)
	c.types[q] = tc
	c.spec.Enums = append(c.spec.Enums, tc)
	// Labels are usable as integer constants.
	for i, l := range d.Labels {
		ci := ConstInfo{Name: c.qualify(l), TC: typecode.TCULong, Value: int64(i)}
		c.consts[ci.Name] = ci
	}
	return nil
}

func (c *checker) unionDecl(d *UnionDecl) error {
	if err := c.define("union", d.Name); err != nil {
		return err
	}
	disc, err := c.resolve(d.Disc, false)
	if err != nil {
		return fmt.Errorf("idl: union %s: discriminant: %w", d.Name, err)
	}
	switch disc.Kind {
	case typecode.Bool, typecode.Octet, typecode.Char, typecode.Short, typecode.UShort,
		typecode.Long, typecode.ULong, typecode.LongLong, typecode.ULongLong, typecode.Enum:
	default:
		return fmt.Errorf("idl: union %s: discriminant must be an integral, enum, char or boolean type, not %v", d.Name, disc)
	}
	q := c.qualify(d.Name)
	tc := &typecode.TypeCode{Kind: typecode.Union, Name: q, Disc: disc}
	seenLabel := map[int64]bool{}
	seenName := map[string]bool{}
	haveDefault := false
	for _, arm := range d.Arms {
		if seenName[arm.Name] {
			return fmt.Errorf("idl: union %s: duplicate member %s", q, arm.Name)
		}
		seenName[arm.Name] = true
		if len(arm.Labels) == 0 && !arm.Default {
			return fmt.Errorf("idl: union %s: member %s has no case label", q, arm.Name)
		}
		if arm.Default {
			if haveDefault {
				return fmt.Errorf("idl: union %s: multiple default members", q)
			}
			haveDefault = true
		}
		at, err := c.resolve(arm.Type, false)
		if err != nil {
			return fmt.Errorf("idl: union %s: member %s: %w", q, arm.Name, err)
		}
		uc := typecode.UnionCase{Default: arm.Default, Field: typecode.Field{Name: arm.Name, Type: at}}
		for _, le := range arm.Labels {
			v, err := c.eval(le)
			if err != nil {
				return fmt.Errorf("idl: union %s: member %s: %w", q, arm.Name, err)
			}
			if seenLabel[v] {
				return fmt.Errorf("idl: union %s: duplicate case label %d", q, v)
			}
			seenLabel[v] = true
			uc.Labels = append(uc.Labels, v)
		}
		tc.Cases = append(tc.Cases, uc)
	}
	c.types[q] = tc
	c.spec.Unions = append(c.spec.Unions, tc)
	return nil
}

func (c *checker) exceptionDecl(d *ExceptionDecl) error {
	if err := c.define("exception", d.Name); err != nil {
		return err
	}
	fields, err := c.members("exception "+d.Name, d.Members)
	if err != nil {
		return err
	}
	q := c.qualify(d.Name)
	info := ExceptionInfo{Name: q, TC: typecode.StructOf(q, fields...)}
	c.excs[q] = info
	c.spec.Exceptions = append(c.spec.Exceptions, info)
	return nil
}

func (c *checker) interfaceDecl(d *InterfaceDecl) error {
	if err := c.define("interface", d.Name); err != nil {
		return err
	}
	q := c.qualify(d.Name)
	info := &InterfaceInfo{Name: q}
	opNames := map[string]bool{}
	// Inherited operations come first, base order.
	for _, base := range d.Bases {
		bi, ok := lookupIn(c, c.ifaces, base)
		if !ok {
			return fmt.Errorf("idl: interface %s: undefined base %s", q, base)
		}
		info.Bases = append(info.Bases, bi.Name)
		for _, op := range bi.Ops {
			if opNames[op.Name] {
				return fmt.Errorf("idl: interface %s inherits duplicate operation %s", q, op.Name)
			}
			opNames[op.Name] = true
			info.Ops = append(info.Ops, op)
		}
	}
	for _, m := range d.Members {
		switch m := m.(type) {
		case *TypedefDecl:
			// Interface-scoped typedefs land in the global scope
			// qualified by the interface name.
			c.stack = append(c.stack, scope{prefix: q + "::"})
			err := c.typedefDecl(m)
			c.stack = c.stack[:len(c.stack)-1]
			if err != nil {
				return err
			}
		case *ConstDecl:
			c.stack = append(c.stack, scope{prefix: q + "::"})
			err := c.constDecl(m)
			c.stack = c.stack[:len(c.stack)-1]
			if err != nil {
				return err
			}
		case *OpDecl:
			op, err := c.opDecl(q, m)
			if err != nil {
				return err
			}
			if opNames[op.Name] {
				return fmt.Errorf("idl: interface %s: duplicate operation %s", q, op.Name)
			}
			opNames[op.Name] = true
			info.Ops = append(info.Ops, op)
		case *AttributeDecl:
			tc, err := c.resolve(m.Type, false)
			if err != nil {
				return fmt.Errorf("idl: interface %s: attribute: %w", q, err)
			}
			for _, n := range m.Names {
				get := OpInfo{Name: "_get_" + n, Ret: tc}
				ops := []OpInfo{get}
				if !m.ReadOnly {
					ops = append(ops, OpInfo{
						Name:   "_set_" + n,
						Params: []ParamInfo{{Name: "value", Dir: "in", TC: tc}},
					})
				}
				for _, op := range ops {
					if opNames[op.Name] {
						return fmt.Errorf("idl: interface %s: attribute %s collides with operation %s", q, n, op.Name)
					}
					opNames[op.Name] = true
					info.Ops = append(info.Ops, op)
				}
			}
		}
	}
	c.ifaces[q] = info
	c.spec.Interfaces = append(c.spec.Interfaces, *info)
	return nil
}

func (c *checker) opDecl(iface string, d *OpDecl) (OpInfo, error) {
	op := OpInfo{Name: d.Name, Oneway: d.Oneway, Idempotent: d.Idempotent}
	if bt, ok := d.Ret.(*BasicType); !ok || bt.Name != "void" {
		tc, err := c.resolve(d.Ret, false)
		if err != nil {
			return op, fmt.Errorf("idl: %s.%s: result: %w", iface, d.Name, err)
		}
		op.Ret = tc
	}
	if d.Oneway && op.Ret != nil {
		return op, fmt.Errorf("idl: %s.%s: oneway operation must return void", iface, d.Name)
	}
	seen := map[string]bool{}
	for _, prm := range d.Params {
		if seen[prm.Name] {
			return op, fmt.Errorf("idl: %s.%s: duplicate parameter %s", iface, d.Name, prm.Name)
		}
		seen[prm.Name] = true
		tc, err := c.resolve(prm.Type, true)
		if err != nil {
			return op, fmt.Errorf("idl: %s.%s: parameter %s: %w", iface, d.Name, prm.Name, err)
		}
		if d.Oneway && prm.Dir != "in" {
			return op, fmt.Errorf("idl: %s.%s: oneway operation cannot have %s parameter %s",
				iface, d.Name, prm.Dir, prm.Name)
		}
		if tc.Kind == typecode.DSequence && prm.Dir == "inout" {
			return op, fmt.Errorf("idl: %s.%s: distributed parameter %s cannot be inout",
				iface, d.Name, prm.Name)
		}
		pi := ParamInfo{Name: prm.Name, Dir: prm.Dir, TC: tc}
		if nt, ok := prm.Type.(*NamedType); ok {
			pi.TypeName = nt.Name
		}
		op.Params = append(op.Params, pi)
	}
	for _, r := range d.Raises {
		ei, ok := lookupIn(c, c.excs, r)
		if !ok {
			return op, fmt.Errorf("idl: %s.%s: raises undefined exception %s", iface, d.Name, r)
		}
		op.Raises = append(op.Raises, ei.Name)
	}
	return op, nil
}

// Typedef returns the typedef info for a (possibly scoped) name.
func (s *Spec) Typedef(name string) (TypedefInfo, bool) {
	for _, td := range s.Typedefs {
		if td.Name == name || strings.HasSuffix(td.Name, "::"+name) {
			return td, true
		}
	}
	return TypedefInfo{}, false
}

// Interface returns the interface info by name.
func (s *Spec) Interface(name string) (InterfaceInfo, bool) {
	for _, ii := range s.Interfaces {
		if ii.Name == name || strings.HasSuffix(ii.Name, "::"+name) {
			return ii, true
		}
	}
	return InterfaceInfo{}, false
}
