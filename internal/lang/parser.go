package lang

import (
	"fmt"
	"math"
)

// Parse parses a program (one expression) from source text. It lexes the
// whole source first, so that a lexical error anywhere is the error it
// reports, then parses from a second scan, a token at a time. The tree's
// nodes come from slabs of this one parse, each sized from the first scan.
func Parse(src string) (Expr, error) {
	c, err := scan(src)
	if err != nil {
		return nil, err
	}
	p := &parser{lx: newLexer(src)}
	p.reserve(&c)
	p.bindStack = make([]Bind, 0, c.binds)
	p.advance()
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

type parser struct {
	lx    lexer
	tok   token // the one token of lookahead
	depth int
	nodes
	// bindStack holds the bindings of the lets being parsed, each let's
	// copied out at its final length.
	bindStack []Bind
}

// tally counts, as scan reads a source's tokens, the tokens and the nodes
// of each kind a parse of them builds, so that each slab of the parse is
// one allocation of the size it needs. For a source that parses, the
// counts are exact: the grammar fixes each node to a token and the tokens
// next to it. For one that does not, a slab that runs short grows as an
// unsized one does, so a count may be wrong but never unsafe.
type tally struct {
	tokens int
	// The nodes: Var (an identifier that is neither a parameter nor a
	// binding's name), IntLit, App, If, Lam, Let, the parameters of the
	// Lams, and the bindings of the Lets.
	vars, ints, apps, ifs, lams, lets, names, binds int

	run     int  // identifiers in a row up to the last token
	atomEnd bool // the last token ends an atom
	opened  bool // the last token is '['
}

func (c *tally) add(t token) {
	c.tokens++
	starts, ends := false, false
	switch t.kind {
	case tokIdent:
		c.vars++
		starts, ends = true, true
	case tokInt:
		c.ints++
		starts, ends = true, true
	case tokKeyword:
		switch t.text {
		case "true", "false":
			starts, ends = true, true
		case "if":
			c.ifs++
		case "let":
			c.lets++
		}
	case tokLParen, tokLBracket:
		starts = true
	case tokRParen:
		ends = true
	case tokRBracket:
		if !c.opened {
			c.apps += 2 // the cons of a non-empty list's last element
		}
		ends = true
	case tokOp:
		switch t.text {
		case "\\":
			c.lams++
		case ".":
			// The identifiers before '.' are a lambda's parameters.
			c.header()
			c.names += c.run
		case "=":
			// The first identifier before '=' names the binding, and the
			// rest are the parameters of the Lam it desugars to.
			c.header()
			c.binds++
			if c.run > 1 {
				c.lams++
				c.names += c.run - 1
			}
		case ",":
			c.apps += 2 // the cons of a list element
		case ";":
		default:
			c.apps += 2 // a binary operator applied to its operands
		}
	}
	if starts && c.atomEnd {
		c.apps++ // an application of the atom before to this one
	}
	if t.kind == tokIdent {
		c.run++
	} else {
		c.run = 0
	}
	c.atomEnd, c.opened = ends, t.kind == tokLBracket
}

// header takes back the identifiers before the current token, counted as
// Vars applied to each other: they head a lambda or a binding.
func (c *tally) header() {
	if c.run > 0 {
		c.vars -= c.run
		c.apps -= c.run - 1
	}
}

// maxParseDepth bounds expression nesting. Every nesting construct
// (parens, list brackets, lambda/let/if bodies, operator operands) routes
// through expr, so the guard caps parser recursion: pathological inputs
// like a megabyte of "(" fail cleanly instead of exhausting the stack.
const maxParseDepth = 4096

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.advance()
	}
	return t
}

// advance pulls the next token into the lookahead. Its error is dropped:
// Parse has scanned the same source without one.
func (p *parser) advance() { p.tok, _ = p.lx.next() }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectOp(op string) error {
	t := p.peek()
	if t.kind != tokOp || t.text != op {
		return p.errf("expected %q, found %q", op, t.text)
	}
	p.next()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %q, found %q", kw, t.text)
	}
	p.next()
	return nil
}

// expr := lambda | let | if | binary
func (p *parser) expr() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, p.errf("expression nested deeper than %d", maxParseDepth)
	}
	t := p.peek()
	switch {
	case t.kind == tokOp && t.text == "\\":
		return p.lambda()
	case t.kind == tokKeyword && t.text == "let":
		return p.let()
	case t.kind == tokKeyword && t.text == "if":
		return p.ifExpr()
	default:
		return p.binary(0)
	}
}

func (p *parser) lambda() (Expr, error) {
	p.next() // backslash
	params := p.params()
	if len(params) == 0 {
		return nil, p.errf("lambda needs at least one parameter")
	}
	if err := p.expectOp("."); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	return p.newLam(params, body), nil
}

// params reads the identifiers that come next into the names slab, and
// returns them.
func (p *parser) params() []string {
	lo := len(p.names)
	for p.peek().kind == tokIdent {
		lo = p.names.add(lo, p.next().text)
	}
	return p.names.run(lo)
}

func (p *parser) let() (Expr, error) {
	p.next() // let
	mark := len(p.bindStack)
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errf("expected binding name, found %q", t.text)
		}
		name := p.next().text
		// Sugar: let f x y = e  ≡  let f = \x y. e
		params := p.params()
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		if len(params) > 0 {
			val = p.newLam(params, val)
		}
		p.bindStack = append(p.bindStack, Bind{Name: name, Val: val})
		if t := p.peek(); t.kind == tokOp && t.text == ";" {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("in"); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	let := p.newLet(p.bindStack[mark:], body)
	p.bindStack = p.bindStack[:mark]
	return let, nil
}

func (p *parser) ifExpr() (Expr, error) {
	p.next() // if
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	thn, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := p.expr()
	if err != nil {
		return nil, err
	}
	return p.newIf(cond, thn, els), nil
}

// binOp describes an infix operator.
type binOp struct {
	prec       int
	rightAssoc bool
	builtin    *Var // prefix builtin it desugars to, shared by every tree
}

var binOps = map[string]binOp{
	"||": {prec: 1, builtin: &Var{Name: "or"}},
	"&&": {prec: 2, builtin: &Var{Name: "and"}},
	"==": {prec: 3, builtin: &Var{Name: "__eq"}},
	"/=": {prec: 3, builtin: &Var{Name: "__ne"}},
	"<":  {prec: 3, builtin: &Var{Name: "__lt"}},
	"<=": {prec: 3, builtin: &Var{Name: "__le"}},
	">":  {prec: 3, builtin: &Var{Name: "__gt"}},
	">=": {prec: 3, builtin: &Var{Name: "__ge"}},
	":":  {prec: 4, rightAssoc: true, builtin: consVar},
	"+":  {prec: 5, builtin: &Var{Name: "__add"}},
	"-":  {prec: 5, builtin: &Var{Name: "__sub"}},
	"*":  {prec: 6, builtin: &Var{Name: "__mul"}},
	"/":  {prec: 6, builtin: &Var{Name: "__div"}},
	"%":  {prec: 6, builtin: &Var{Name: "__mod"}},
}

// binary parses infix expressions by precedence climbing. It carries its
// own depth guard: right-associative chains (`1:2:3:...`) recurse here
// without passing through expr.
func (p *parser) binary(minPrec int) (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, p.errf("expression nested deeper than %d", maxParseDepth)
	}
	lhs, err := p.application()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp {
			return lhs, nil
		}
		op, ok := binOps[t.text]
		if !ok || op.prec < minPrec {
			return lhs, nil
		}
		p.next()
		nextMin := op.prec + 1
		if op.rightAssoc {
			nextMin = op.prec
		}
		var rhs Expr
		// Allow lambda/let/if directly on the right of an operator.
		switch pt := p.peek(); {
		case pt.kind == tokOp && pt.text == "\\":
			rhs, err = p.lambda()
		case pt.kind == tokKeyword && (pt.text == "let" || pt.text == "if"):
			rhs, err = p.expr()
		default:
			rhs, err = p.binary(nextMin)
		}
		if err != nil {
			return nil, err
		}
		lhs = p.newApp(p.newApp(op.builtin, lhs), rhs)
	}
}

// application := atom atom*
func (p *parser) application() (Expr, error) {
	f, err := p.atom()
	if err != nil {
		return nil, err
	}
	for p.startsAtom() {
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		f = p.newApp(f, a)
	}
	return f, nil
}

func (p *parser) startsAtom() bool {
	t := p.peek()
	switch t.kind {
	case tokInt, tokIdent, tokLParen, tokLBracket:
		return true
	case tokKeyword:
		return t.text == "true" || t.text == "false"
	default:
		return false
	}
}

func (p *parser) atom() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		var n int64
		for _, c := range t.text {
			d := int64(c - '0')
			if n > (math.MaxInt64-d)/10 {
				return nil, p.errf("integer literal %q out of range", t.text)
			}
			n = n*10 + d
		}
		p.next()
		return p.newInt(n), nil
	case tokIdent:
		p.next()
		return p.newVar(t.text), nil
	case tokKeyword:
		switch t.text {
		case "true":
			p.next()
			return trueLit, nil
		case "false":
			p.next()
			return falseLit, nil
		}
		return nil, p.errf("unexpected keyword %q", t.text)
	case tokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ')', found %q", p.peek().text)
		}
		p.next()
		return e, nil
	case tokLBracket:
		return p.list()
	default:
		return nil, p.errf("unexpected %q", t.text)
	}
}

// list := '[' (expr (',' expr)*)? ']'  — sugar for cons chains, built
// front to back: each element's cell is linked into the tail of the last.
func (p *parser) list() (Expr, error) {
	p.next() // [
	var lst Expr = nilLit
	if p.peek().kind != tokRBracket {
		tail := &lst
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			cell := p.newApp(p.newApp(consVar, e), nilLit)
			*tail, tail = cell, &cell.Arg
			if t := p.peek(); t.kind == tokOp && t.text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if p.peek().kind != tokRBracket {
		return nil, p.errf("expected ']', found %q", p.peek().text)
	}
	p.next()
	return lst, nil
}
