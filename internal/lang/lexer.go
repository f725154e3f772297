package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexError reports a lexical error with position info.
type lexError struct {
	line int
	msg  string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("line %d: %s", e.line, e.msg)
}

// lexer is a pull scanner over src: each call of next scans one token.
// Comments run from "--" or "#" to end of line. It allocates nothing: a
// token's text is a substring of src.
type lexer struct {
	src  string
	pos  int // byte offset of the next unscanned byte
	line int
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// scan lexes the whole of src and tallies its tokens, the closing EOF
// included, or returns its first lexical error. Parse runs it before it
// pulls a token, so a lexical error anywhere in the source is the error
// reported, ahead of any parse error earlier in the text.
func scan(src string) (tally, error) {
	lx := newLexer(src)
	var c tally
	for {
		t, err := lx.next()
		if err != nil {
			return tally{}, err
		}
		c.add(t)
		if t.kind == tokEOF {
			return c, nil
		}
	}
}

// next scans the next token. At the end of src it returns EOF, and does
// again on every later call.
func (lx *lexer) next() (token, error) {
	src, n := lx.src, len(lx.src)
	for lx.pos < n {
		i := lx.pos
		c := src[i]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '#' || (c == '-' && i+1 < n && src[i+1] == '-'):
			for lx.pos < n && src[lx.pos] != '\n' {
				lx.pos++
			}
		case c >= '0' && c <= '9':
			j := i
			for j < n && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			return lx.emit(tokInt, j), nil
		case c == '(':
			return lx.emit(tokLParen, i+1), nil
		case c == ')':
			return lx.emit(tokRParen, i+1), nil
		case c == '[':
			return lx.emit(tokLBracket, i+1), nil
		case c == ']':
			return lx.emit(tokRBracket, i+1), nil
		default:
			if r, size := decode(src[i:]); isIdentStart(r) {
				j := i + size
				for j < n {
					r, size := decode(src[j:])
					if !isIdentPart(r) {
						break
					}
					j += size
				}
				t := lx.emit(tokIdent, j)
				if isKeyword(t.text) {
					t.kind = tokKeyword
				}
				return t, nil
			}
			op, ok := lexOp(src[i:])
			if !ok {
				return token{}, &lexError{line: lx.line, msg: unexpected(src[i:])}
			}
			return lx.emit(tokOp, i+len(op)), nil
		}
	}
	return token{kind: tokEOF, pos: n, line: lx.line}, nil
}

// emit returns the token of the given kind from lx.pos up to end, and
// moves past it.
func (lx *lexer) emit(kind tokenKind, end int) token {
	t := token{kind: kind, text: lx.src[lx.pos:end], pos: lx.pos, line: lx.line}
	lx.pos = end
	return t
}

// decode returns the rune at the start of s and its width in bytes, with
// a fast path for ASCII. Invalid UTF-8 decodes as utf8.RuneError, width 1.
func decode(s string) (rune, int) {
	if s[0] < utf8.RuneSelf {
		return rune(s[0]), 1
	}
	return utf8.DecodeRuneInString(s)
}

// unexpected describes the character at the start of s that starts no
// token: the character itself, or its byte if s is not UTF-8 there.
func unexpected(s string) string {
	r, size := decode(s)
	if r == utf8.RuneError && size == 1 {
		return fmt.Sprintf("invalid UTF-8 byte %#x", s[0])
	}
	return fmt.Sprintf("unexpected character %q", r)
}

// operators, longest first so prefixes match correctly.
var operators = []string{
	"==", "/=", "<=", ">=", "&&", "||",
	"+", "-", "*", "/", "%", "<", ">", ":", "=", ".", "\\", ";", ",",
}

func lexOp(s string) (string, bool) {
	for _, op := range operators {
		if strings.HasPrefix(s, op) {
			return op, true
		}
	}
	return "", false
}

func isKeyword(s string) bool {
	switch s {
	case "let", "in", "if", "then", "else", "true", "false":
		return true
	}
	return false
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || r == '_'
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return isIdentStart(r) || '0' <= r && r <= '9' || r == '\''
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
