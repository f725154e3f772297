package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// lexError reports a lexical error with position info.
type lexError struct {
	line int
	msg  string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("line %d: %s", e.line, e.msg)
}

// lex tokenizes src. Comments run from "--" or "#" to end of line. It scans
// src twice, counting the tokens and then writing them, so that the token
// slice is one allocation of exactly their number.
func lex(src string) ([]token, error) {
	n, err := scan(src, nil)
	if err != nil {
		return nil, err
	}
	toks := make([]token, n)
	scan(src, toks)
	return toks, nil
}

// scan tokenizes src and returns how many tokens it holds, the closing EOF
// included. It writes the i-th token to toks[i] when toks is not nil, which
// must then have room for them all.
func scan(src string, toks []token) (int, error) {
	k := 0
	put := func(kind tokenKind, text string, pos, line int) {
		if toks != nil {
			toks[k] = token{kind: kind, text: text, pos: pos, line: line}
		}
		k++
	}
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#' || (c == '-' && i+1 < n && src[i+1] == '-'):
			for i < n && src[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9':
			j := i
			for j < n && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			put(tokInt, src[i:j], i, line)
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(src[j])) {
				j++
			}
			text := src[i:j]
			kind := tokIdent
			if keywords[text] {
				kind = tokKeyword
			}
			put(kind, text, i, line)
			i = j
		case c == '(':
			put(tokLParen, "(", i, line)
			i++
		case c == ')':
			put(tokRParen, ")", i, line)
			i++
		case c == '[':
			put(tokLBracket, "[", i, line)
			i++
		case c == ']':
			put(tokRBracket, "]", i, line)
			i++
		default:
			op, ok := lexOp(src[i:])
			if !ok {
				return 0, &lexError{line: line, msg: fmt.Sprintf("unexpected character %q", c)}
			}
			put(tokOp, op, i, line)
			i += len(op)
		}
	}
	put(tokEOF, "", i, line)
	return k, nil
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

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}
