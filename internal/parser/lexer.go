// Package parser implements a lexer and recursive-descent parser for the
// Prolog-like notation used in the paper: rules (head :- body.), facts,
// and integrity constraints written as implications (body -> head.).
//
// Grammar sketch:
//
//	program    := (statement)*
//	statement  := rule | fact | ic
//	rule       := atom ":-" body "."
//	fact       := atom "."
//	ic         := body "->" [atom] "."
//	body       := literal ("," literal)*
//	literal    := ["not"] atom | term cmp term
//	atom       := ident "(" term ("," term)* ")"
//	term       := VARIABLE | SYMBOL | INTEGER | "'" chars "'"
//	cmp        := "=" | "!=" | "<" | "<=" | ">" | ">="
//
// Variables begin with an upper-case letter or '_'; symbols begin with a
// lower-case letter or are single-quoted. Comments run from '%' or "//"
// to end of line.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar
	tokInt
	tokLParen
	tokRParen
	tokComma
	tokPeriod
	tokIf      // :-
	tokImplies // ->
	tokOp      // comparison operator
	tokNot     // "not" keyword (also "\+")
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokInt:
		return "integer"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokPeriod:
		return "'.'"
	case tokIf:
		return "':-'"
	case tokImplies:
		return "'->'"
	case tokOp:
		return "comparison operator"
	case tokNot:
		return "'not'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer cuts the source into tokens. A token's text is a substring of
// the source, so lexing allocates nothing; the one exception is a quoted
// symbol with a doubled quote inside, whose text is unescaped into a
// fresh string.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '%':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// Identifier bytes are classified one at a time, each read as the
// Latin-1 rune of the same number.
func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// identPart tabulates isIdentPart for the scanning loop.
var identPart = func() (t [256]bool) {
	for c := range t {
		t[c] = isIdentPart(byte(c))
	}
	return t
}()

func inIdent(c byte) bool { return identPart[c] }

// isDigit is unicode.IsDigit on a byte: Latin-1 has no digits but 0-9.
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scan consumes the run of bytes that satisfy in, starting at pos
// (the run never holds a newline), and returns the source from start
// to its end.
func (lx *lexer) scan(start int, in func(byte) bool) string {
	end := lx.pos
	for end < len(lx.src) && in(lx.src[end]) {
		end++
	}
	lx.col += end - lx.pos
	lx.pos = end
	return lx.src[start:end]
}

// next returns the next token. Identifier-like tokens are classified as
// variables (upper-case or '_' initial) or plain identifiers.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := lx.peek()
	switch c {
	case '(':
		lx.advance()
		return token{tokLParen, "(", line, col}, nil
	case ')':
		lx.advance()
		return token{tokRParen, ")", line, col}, nil
	case ',':
		lx.advance()
		return token{tokComma, ",", line, col}, nil
	case '.':
		lx.advance()
		return token{tokPeriod, ".", line, col}, nil
	case ':':
		lx.advance()
		if lx.peek() == '-' {
			lx.advance()
			return token{tokIf, ":-", line, col}, nil
		}
		return token{}, lx.errorf(line, col, "expected ':-' after ':'")
	case '-':
		start := lx.pos
		lx.advance()
		if lx.peek() == '>' {
			lx.advance()
			return token{tokImplies, "->", line, col}, nil
		}
		// Negative integer literal.
		if isDigit(lx.peek()) {
			return token{tokInt, lx.scan(start, isDigit), line, col}, nil
		}
		return token{}, lx.errorf(line, col, "expected '->' or digit after '-'")
	case '=':
		lx.advance()
		if lx.peek() == '<' { // tolerate Prolog-style =<
			lx.advance()
			return token{tokOp, "<=", line, col}, nil
		}
		if lx.peek() == '=' {
			lx.advance()
		}
		return token{tokOp, "=", line, col}, nil
	case '!':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{tokOp, "!=", line, col}, nil
		}
		return token{}, lx.errorf(line, col, "expected '=' after '!'")
	case '<':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{tokOp, "<=", line, col}, nil
		}
		if lx.peek() == '>' {
			lx.advance()
			return token{tokOp, "!=", line, col}, nil
		}
		return token{tokOp, "<", line, col}, nil
	case '>':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{tokOp, ">=", line, col}, nil
		}
		return token{tokOp, ">", line, col}, nil
	case '\\':
		lx.advance()
		if lx.peek() == '+' {
			lx.advance()
			return token{tokNot, "not", line, col}, nil
		}
		return token{}, lx.errorf(line, col, "unexpected '\\'")
	case '\'':
		return lx.quoted(line, col)
	}
	if isDigit(c) {
		return token{tokInt, lx.scan(lx.pos, isDigit), line, col}, nil
	}
	if isIdentStart(c) {
		text := lx.scan(lx.pos, inIdent)
		if text == "not" {
			return token{tokNot, text, line, col}, nil
		}
		if c == '_' || unicode.IsUpper(rune(c)) {
			return token{tokVar, text, line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	}
	return token{}, lx.errorf(line, col, "unexpected character %q", c)
}

// quoted reads a single-quoted symbol; the opening quote is at pos. A
// doubled quote inside stands for one quote: only a symbol with one is
// copied out of the source.
func (lx *lexer) quoted(line, col int) (token, error) {
	lx.advance()
	start, doubled := lx.pos, false
	for {
		for lx.pos < len(lx.src) && lx.peek() != '\'' {
			lx.advance()
		}
		if lx.pos >= len(lx.src) {
			return token{}, lx.errorf(line, col, "unterminated quoted symbol")
		}
		lx.advance() // the closing quote, or the first of a doubled one
		if lx.peek() != '\'' {
			break
		}
		lx.advance()
		doubled = true
	}
	text := lx.src[start : lx.pos-1]
	if doubled {
		text = strings.ReplaceAll(text, "''", "'")
	}
	return token{tokIdent, text, line, col}, nil
}
