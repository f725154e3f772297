// Package lang provides the small functional language front end: lexer,
// parser, a call-by-need reference interpreter, and the Turner-style
// bracket-abstraction compiler from lambda terms to S/K/I/B/C/S'/B'/C'
// combinator graphs consumed by the reduction engine.
//
// The surface language:
//
//	expr   := \x y. expr                      -- lambda (right-assoc body)
//	        | let x = e; y = e in expr        -- mutually recursive bindings
//	        | if e then e else e
//	        | e || e | e && e                 -- boolean (strict)
//	        | e == e | e /= e | < <= > >=     -- comparison
//	        | e + e | e - e | e * e / e % e   -- arithmetic
//	        | e : e                           -- cons (right-assoc)
//	        | e e                             -- application (left-assoc)
//	        | ints, true, false, [e, e, ...], identifiers, (e)
//
// Builtins: head tail cons isnil ispair not neg seq spec par bottom fix.
package lang

type tokenKind uint8

const (
	tokEOF tokenKind = iota + 1
	tokInt
	tokIdent
	tokKeyword // let in if then else true false
	tokOp      // + - * / % == /= < <= > >= && || : = . \ ; ,
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
	line int
}
