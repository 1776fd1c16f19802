// Package idl implements PARDIS' extended CORBA Interface Definition
// Language: lexer, parser, and semantic analysis.
//
// The extension over CORBA IDL is the distributed sequence type
//
//	dsequence<T, bound, clientDist, serverDist>
//
// (bound and the two distribution annotations optional), plus
// `#pragma <Package>:<native-type>` lines that direct the compiler to map
// the next dsequence typedef onto a parallel package's native structure
// (POOMA fields, HPC++ PSTL vectors) — paper §3.2 and §3.4.
package idl

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokChar
	TokPunct  // ( ) { } < > [ ] ; , : = + - * / % | & ^ ~
	TokPragma // a whole #pragma line, value = its content after "#pragma"
)

// Token is one lexical unit.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Is reports whether the token is the given punctuation or keyword text.
func (t Token) Is(text string) bool {
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

var keywords = map[string]bool{
	"module": true, "interface": true, "typedef": true, "struct": true,
	"enum": true, "const": true, "exception": true, "oneway": true,
	"idempotent": true,
	"in":         true, "out": true, "inout": true, "raises": true,
	"sequence": true, "dsequence": true, "string": true,
	"void": true, "boolean": true, "char": true, "octet": true,
	"short": true, "long": true, "unsigned": true, "float": true,
	"double": true, "attribute": true, "readonly": true,
	"union": true, "switch": true, "case": true, "default": true,
	"TRUE": true, "FALSE": true,
}

// Lexer tokenizes IDL source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer creates a lexer over the source text.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Error is a positioned lexical or syntax error.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("idl:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) at(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
		}
		c := l.peekByte()
		switch {
		case c == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
			continue
		case c == '/' && l.at(1) == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return Token{}, errAt(startLine, startCol, "unterminated block comment")
				}
				if l.peekByte() == '*' && l.at(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
			continue
		case c == '#':
			return l.lexDirective()
		case isIdentStart(rune(c)):
			return l.lexIdent(), nil
		case c >= '0' && c <= '9':
			return l.lexNumber(), nil
		case c == '"':
			return l.lexString()
		case c == '\'':
			return l.lexChar()
		default:
			return l.lexPunct()
		}
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.advance()
			continue
		}
		return
	}
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

func (l *Lexer) lexIdent() Token {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.peekByte())) {
		l.advance()
	}
	text := l.src[start:l.pos]
	kind := TokIdent
	if keywords[text] {
		kind = TokKeyword
	}
	return Token{Kind: kind, Text: text, Line: line, Col: col}
}

func (l *Lexer) lexNumber() Token {
	line, col := l.line, l.col
	start := l.pos
	isFloat := false
	if l.peekByte() == '0' && (l.at(1) == 'x' || l.at(1) == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHex(l.peekByte()) {
			l.advance()
		}
	} else {
		for l.pos < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
			l.advance()
		}
		if l.peekByte() == '.' {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
				l.advance()
			}
		}
		if l.peekByte() == 'e' || l.peekByte() == 'E' {
			isFloat = true
			l.advance()
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.advance()
			}
			for l.pos < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
				l.advance()
			}
		}
	}
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Line: line, Col: col}
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *Lexer) lexString() (Token, error) {
	line, col := l.line, l.col
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, errAt(line, col, "unterminated string literal")
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				return Token{}, errAt(line, col, "unterminated string literal")
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"':
				sb.WriteByte(e)
			default:
				return Token{}, errAt(l.line, l.col, "unknown escape \\%c", e)
			}
			continue
		}
		sb.WriteByte(c)
	}
	return Token{Kind: TokString, Text: sb.String(), Line: line, Col: col}, nil
}

func (l *Lexer) lexChar() (Token, error) {
	line, col := l.line, l.col
	l.advance() // opening quote
	if l.pos >= len(l.src) {
		return Token{}, errAt(line, col, "unterminated character literal")
	}
	c := l.advance()
	if c == '\\' {
		if l.pos >= len(l.src) {
			return Token{}, errAt(line, col, "unterminated character literal")
		}
		e := l.advance()
		switch e {
		case 'n':
			c = '\n'
		case 't':
			c = '\t'
		case '\\', '\'':
			c = e
		default:
			return Token{}, errAt(line, col, "unknown escape \\%c", e)
		}
	}
	if l.pos >= len(l.src) || l.advance() != '\'' {
		return Token{}, errAt(line, col, "unterminated character literal")
	}
	return Token{Kind: TokChar, Text: string(c), Line: line, Col: col}, nil
}

var twoBytePunct = map[string]bool{"<<": true, ">>": true, "::": true}

func (l *Lexer) lexPunct() (Token, error) {
	line, col := l.line, l.col
	c := l.peekByte()
	if two := string(c) + string(l.at(1)); twoBytePunct[two] {
		l.advance()
		l.advance()
		return Token{Kind: TokPunct, Text: two, Line: line, Col: col}, nil
	}
	switch c {
	case '(', ')', '{', '}', '<', '>', '[', ']', ';', ',', ':', '=',
		'+', '-', '*', '/', '%', '|', '&', '^', '~':
		l.advance()
		return Token{Kind: TokPunct, Text: string(c), Line: line, Col: col}, nil
	}
	return Token{}, errAt(line, col, "unexpected character %q", c)
}

// lexDirective handles preprocessor-style lines. Only #pragma and #include
// survive to the parser; anything else is an error.
func (l *Lexer) lexDirective() (Token, error) {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) && l.peekByte() != '\n' {
		l.advance()
	}
	text := strings.TrimSpace(l.src[start:l.pos])
	switch {
	case strings.HasPrefix(text, "#pragma"):
		return Token{Kind: TokPragma, Text: strings.TrimSpace(text[len("#pragma"):]), Line: line, Col: col}, nil
	case strings.HasPrefix(text, "#include"):
		// Includes are resolved by the Compile front end before lexing;
		// reaching one here means no resolver was configured.
		return Token{}, errAt(line, col, "#include requires an include resolver")
	default:
		return Token{}, errAt(line, col, "unsupported directive %s", text)
	}
}

// LexAll tokenizes the whole input (testing convenience).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
