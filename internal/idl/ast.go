package idl

// File is a parsed IDL compilation unit.
type File struct {
	Defs []Def
}

// Def is any top-level or interface-scope definition.
type Def interface{ defNode() }

// Module is a named scope of definitions.
type Module struct {
	Name string
	Defs []Def
}

// InterfaceDecl declares an object interface.
type InterfaceDecl struct {
	Name    string
	Bases   []string
	Members []Def // OpDecl, TypedefDecl, ConstDecl
}

// OpDecl declares one operation.
type OpDecl struct {
	Oneway bool
	// Idempotent marks the operation safe for automatic client retry.
	Idempotent bool
	Ret        Type // BasicType{"void"} for void
	Name       string
	Params     []ParamDecl
	Raises     []string
}

// ParamDecl is one operation parameter.
type ParamDecl struct {
	Dir  string // "in", "out", "inout"
	Type Type
	Name string
}

// TypedefDecl names a type; Pragmas carry package mappings attached to it.
type TypedefDecl struct {
	Name    string
	Type    Type
	Pragmas []Pragma
}

// Pragma is one `#pragma Package:target` mapping directive.
type Pragma struct {
	Package string // e.g. "POOMA", "HPC++"
	Target  string // e.g. "field", "vector"
}

// StructDecl declares a structure.
type StructDecl struct {
	Name    string
	Members []Member
}

// Member is one struct/exception member declaration (possibly multiple
// declarators).
type Member struct {
	Type  Type
	Names []string
}

// EnumDecl declares an enumeration.
type EnumDecl struct {
	Name   string
	Labels []string
}

// ConstDecl declares a constant.
type ConstDecl struct {
	Name string
	Type Type
	Expr Expr
}

// ExceptionDecl declares an exception type usable in raises clauses.
type ExceptionDecl struct {
	Name    string
	Members []Member
}

// UnionDecl declares a discriminated union.
type UnionDecl struct {
	Name string
	Disc Type
	Arms []UnionArm
}

// UnionArm is one union member with its case labels.
type UnionArm struct {
	Labels  []Expr // empty plus Default for the default arm
	Default bool
	Type    Type
	Name    string
}

// AttributeDecl declares interface attributes; semantic analysis desugars
// each into a _get_<name> operation (plus _set_<name> unless readonly), as
// CORBA prescribes.
type AttributeDecl struct {
	ReadOnly bool
	Type     Type
	Names    []string
}

func (*Module) defNode()        {}
func (*InterfaceDecl) defNode() {}
func (*OpDecl) defNode()        {}
func (*TypedefDecl) defNode()   {}
func (*StructDecl) defNode()    {}
func (*EnumDecl) defNode()      {}
func (*ConstDecl) defNode()     {}
func (*ExceptionDecl) defNode() {}
func (*AttributeDecl) defNode() {}
func (*UnionDecl) defNode()     {}

// Type is a syntactic type reference.
type Type interface{ typeNode() }

// BasicType is a builtin type ("double", "unsigned long", "string", ...).
type BasicType struct {
	Name string
}

// SeqType is sequence<Elem[, Bound]>.
type SeqType struct {
	Elem  Type
	Bound Expr // nil = unbounded
}

// DSeqType is dsequence<Elem[, Bound[, ClientDist[, ServerDist]]]>.
type DSeqType struct {
	Elem       Type
	Bound      Expr   // nil = unbounded
	ClientDist string // "" = unspecified (BLOCK by default at runtime)
	ServerDist string
}

// NamedType refers to a typedef/struct/enum by (possibly scoped) name.
type NamedType struct {
	Name string
}

func (*BasicType) typeNode() {}
func (*SeqType) typeNode()   {}
func (*DSeqType) typeNode()  {}
func (*NamedType) typeNode() {}

// Expr is a constant expression.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct {
	Value int64
}

// Ref references a declared constant.
type Ref struct {
	Name string
}

// Unary applies - or ~ to an operand.
type Unary struct {
	Op string
	X  Expr
}

// Binary applies an arithmetic/shift operator.
type Binary struct {
	Op   string
	L, R Expr
}

func (*IntLit) exprNode() {}
func (*Ref) exprNode()    {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
