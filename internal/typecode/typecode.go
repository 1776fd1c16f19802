// Package typecode describes IDL types at run time and provides
// typecode-driven marshaling — the machinery behind both the dynamic
// invocation interface and the stub code emitted by the IDL compiler.
//
// A TypeCode is the runtime mirror of an IDL type: primitives, strings,
// enums, structs, (bounded) sequences and PARDIS' distributed sequences.
// Values are carried as Go values with a fixed mapping (see Marshal).
package typecode

import "fmt"

// Kind enumerates IDL type constructors.
type Kind int

// Kinds, mirroring the extended IDL's type constructors.
const (
	Void Kind = iota
	Bool
	Octet
	Char
	Short
	UShort
	Long
	ULong
	LongLong
	ULongLong
	Float
	Double
	String
	Enum
	Struct
	Sequence  // sequence<T> or sequence<T, bound>
	DSequence // dsequence<T, bound, clientDist, serverDist>
	ObjRef    // interface reference
	Union     // discriminated union
)

var kindNames = map[Kind]string{
	Void: "void", Bool: "boolean", Octet: "octet", Char: "char",
	Short: "short", UShort: "unsigned short", Long: "long", ULong: "unsigned long",
	LongLong: "long long", ULongLong: "unsigned long long",
	Float: "float", Double: "double", String: "string", Enum: "enum",
	Struct: "struct", Sequence: "sequence", DSequence: "dsequence", ObjRef: "Object",
	Union: "union",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Field is one member of a struct TypeCode.
type Field struct {
	Name string
	Type *TypeCode
}

// UnionCase is one arm of a discriminated union: the discriminant values
// that select it (empty for the default arm) and the member it carries.
type UnionCase struct {
	Labels  []int64 // discriminant values selecting this arm
	Default bool
	Field   Field
}

// TypeCode describes one IDL type.
type TypeCode struct {
	Kind   Kind
	Name   string    // struct/enum/interface/union name, or typedef alias
	Elem   *TypeCode // sequence / dsequence element type
	Bound  int       // sequence bound; 0 = unbounded
	Fields []Field   // struct members
	Labels []string  // enum labels
	// Union shape: the discriminant type (an integral, enum, char or
	// boolean typecode) and the arms.
	Disc  *TypeCode
	Cases []UnionCase
	// Default distributions for a dsequence, as written in IDL
	// (e.g. "BLOCK", "CYCLIC", "COLLAPSED"). Empty = unspecified.
	ClientDist, ServerDist string
}

// Predeclared primitive typecodes.
var (
	TCVoid      = &TypeCode{Kind: Void}
	TCBool      = &TypeCode{Kind: Bool}
	TCOctet     = &TypeCode{Kind: Octet}
	TCChar      = &TypeCode{Kind: Char}
	TCShort     = &TypeCode{Kind: Short}
	TCUShort    = &TypeCode{Kind: UShort}
	TCLong      = &TypeCode{Kind: Long}
	TCULong     = &TypeCode{Kind: ULong}
	TCLongLong  = &TypeCode{Kind: LongLong}
	TCULongLong = &TypeCode{Kind: ULongLong}
	TCFloat     = &TypeCode{Kind: Float}
	TCDouble    = &TypeCode{Kind: Double}
	TCString    = &TypeCode{Kind: String}
)

// SequenceOf returns sequence<elem> (bound 0 = unbounded).
func SequenceOf(elem *TypeCode, bound int) *TypeCode {
	return &TypeCode{Kind: Sequence, Elem: elem, Bound: bound}
}

// DSequenceOf returns dsequence<elem, bound, clientDist, serverDist>.
func DSequenceOf(elem *TypeCode, bound int, clientDist, serverDist string) *TypeCode {
	return &TypeCode{Kind: DSequence, Elem: elem, Bound: bound, ClientDist: clientDist, ServerDist: serverDist}
}

// StructOf returns a struct typecode.
func StructOf(name string, fields ...Field) *TypeCode {
	return &TypeCode{Kind: Struct, Name: name, Fields: fields}
}

// EnumOf returns an enum typecode.
func EnumOf(name string, labels ...string) *TypeCode {
	return &TypeCode{Kind: Enum, Name: name, Labels: labels}
}

// ObjRefOf returns an object-reference typecode for the named interface.
func ObjRefOf(name string) *TypeCode { return &TypeCode{Kind: ObjRef, Name: name} }

// UnionOf returns a union typecode.
func UnionOf(name string, disc *TypeCode, cases ...UnionCase) *TypeCode {
	return &TypeCode{Kind: Union, Name: name, Disc: disc, Cases: cases}
}

// CaseFor returns the arm selected by the discriminant value (falling back
// to the default arm), or nil if no arm matches.
func (tc *TypeCode) CaseFor(disc int64) *UnionCase {
	var def *UnionCase
	for i := range tc.Cases {
		c := &tc.Cases[i]
		if c.Default {
			def = c
			continue
		}
		for _, l := range c.Labels {
			if l == disc {
				return c
			}
		}
	}
	return def
}

func (tc *TypeCode) String() string {
	switch tc.Kind {
	case Struct, Enum, ObjRef, Union:
		return fmt.Sprintf("%s %s", tc.Kind, tc.Name)
	case Sequence:
		return fmt.Sprintf("sequence<%s>", tc.Elem)
	case DSequence:
		return fmt.Sprintf("dsequence<%s>", tc.Elem)
	default:
		return tc.Kind.String()
	}
}

// Equal reports structural type equality.
func (tc *TypeCode) Equal(o *TypeCode) bool {
	if tc == o {
		return true
	}
	if tc == nil || o == nil || tc.Kind != o.Kind || tc.Bound != o.Bound || tc.Name != o.Name {
		return false
	}
	if (tc.Elem == nil) != (o.Elem == nil) {
		return false
	}
	if tc.Elem != nil && !tc.Elem.Equal(o.Elem) {
		return false
	}
	if len(tc.Fields) != len(o.Fields) || len(tc.Labels) != len(o.Labels) {
		return false
	}
	for i := range tc.Fields {
		if tc.Fields[i].Name != o.Fields[i].Name || !tc.Fields[i].Type.Equal(o.Fields[i].Type) {
			return false
		}
	}
	for i := range tc.Labels {
		if tc.Labels[i] != o.Labels[i] {
			return false
		}
	}
	if (tc.Disc == nil) != (o.Disc == nil) || (tc.Disc != nil && !tc.Disc.Equal(o.Disc)) {
		return false
	}
	if len(tc.Cases) != len(o.Cases) {
		return false
	}
	for i := range tc.Cases {
		a, b := tc.Cases[i], o.Cases[i]
		if a.Default != b.Default || len(a.Labels) != len(b.Labels) ||
			a.Field.Name != b.Field.Name || !a.Field.Type.Equal(b.Field.Type) {
			return false
		}
		for j := range a.Labels {
			if a.Labels[j] != b.Labels[j] {
				return false
			}
		}
	}
	return true
}

// StructVal is the runtime representation of an IDL struct value: field
// values in declaration order.
type StructVal struct {
	TC     *TypeCode
	Fields []any
}

// UnionVal is the runtime representation of an IDL union value: the
// discriminant and the selected member's value.
type UnionVal struct {
	TC   *TypeCode
	Disc int64
	V    any
}

// Field returns the value of the named field.
func (s *StructVal) Field(name string) (any, bool) {
	for i, f := range s.TC.Fields {
		if f.Name == name {
			return s.Fields[i], true
		}
	}
	return nil, false
}
