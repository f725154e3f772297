package lang

import (
	"fmt"
	"math/rand"
)

// This file is the property-based term generator behind the cross-engine
// differential harness (root differential_test.go) and `dgr-check -gen`:
// seeded random generation of well-typed closed programs whose reference
// value the tree-walking interpreter computes, plus greedy shrinking by
// subterm replacement for minimizing failures.

// GenConfig tunes the generator.
type GenConfig struct {
	// MaxDepth bounds expression nesting (default 5).
	MaxDepth int
	// Fuel is the interpreter budget used to validate candidates
	// (default 400_000). Candidates that exhaust it are discarded, so
	// every generated program terminates quickly on the real machine too.
	Fuel int
	// MaxRetries bounds the generate-validate loop (default 200).
	MaxRetries int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 5
	}
	if c.Fuel <= 0 {
		c.Fuel = 400_000
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 200
	}
	return c
}

// Gen is a seeded well-typed term generator. Generation is type-directed
// over int, bool, and int-list, so every term is closed and well-typed by
// construction; recursion only enters through a fixed set of structurally
// terminating templates (counted loops, bounded list builds), and every
// candidate is validated against the reference interpreter before it is
// returned — a program the interpreter cannot finish within the fuel
// budget is discarded, never emitted.
type Gen struct {
	rng *rand.Rand
	cfg GenConfig
}

// NewGen builds a generator from a seed. The same seed yields the same
// program sequence.
func NewGen(seed int64, cfg GenConfig) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg.withDefaults()}
}

// genType is the generator's little type universe.
type genType int

const (
	tyInt genType = iota
	tyBool
	tyList // list of int
)

// genVar is a variable in scope with its type.
type genVar struct {
	name string
	ty   genType
}

// genState carries one program's generation scope.
type genState struct {
	rng  *rand.Rand
	vars []genVar
	n    int
}

func (s *genState) fresh(hint string) string {
	s.n++
	return fmt.Sprintf("%s%d", hint, s.n)
}

func (s *genState) ofType(ty genType) []genVar {
	var out []genVar
	for _, v := range s.vars {
		if v.ty == ty {
			out = append(out, v)
		}
	}
	return out
}

// Program generates one validated program: the expression, its rendered
// source, and the reference value the interpreter computed for it. Every
// generated program has integer result type. It panics only if MaxRetries
// consecutive candidates fail validation, which a sane configuration never
// approaches.
func (g *Gen) Program() (Expr, string, int64) {
	for try := 0; try < g.cfg.MaxRetries; try++ {
		st := &genState{rng: g.rng}
		e := st.intExpr(g.cfg.MaxDepth)
		want, ok := RefValue(e, g.cfg.Fuel)
		if !ok {
			continue
		}
		return e, e.String(), want
	}
	panic("lang: generator exhausted retries (every candidate failed interpreter validation)")
}

// RefValue evaluates e with the reference interpreter under the given
// fuel budget and reports its integer value. ok is false when the
// interpreter errors (fuel, bottom, or a non-integer result).
func RefValue(e Expr, fuel int) (int64, bool) {
	v, err := NewInterp(fuel).Eval(e)
	if err != nil {
		return 0, false
	}
	n, ok := v.(IInt)
	return int64(n), ok
}

// intExpr generates an int-typed expression.
func (s *genState) intExpr(depth int) Expr {
	if depth <= 0 {
		return s.intLeaf()
	}
	switch s.rng.Intn(10) {
	case 0, 1:
		return s.intLeaf()
	case 2, 3: // arithmetic
		op := [...]string{"+", "-", "*"}[s.rng.Intn(3)]
		return s.binop(op, s.intExpr(depth-1), s.intExpr(depth-1))
	case 4: // guarded division/modulus: divisor is a nonzero literal
		op := "/"
		if s.rng.Intn(2) == 0 {
			op = "%"
		}
		d := int64(s.rng.Intn(7) + 1)
		return s.binop(op, s.intExpr(depth-1), &IntLit{Val: d})
	case 5: // conditional
		return &If{
			Cond: s.boolExpr(depth - 1),
			Then: s.intExpr(depth - 1),
			Else: s.intExpr(depth - 1),
		}
	case 6: // let-bound value
		name := s.fresh("v")
		val := s.intExpr(depth - 1)
		saved := len(s.vars)
		s.vars = append(s.vars, genVar{name: name, ty: tyInt})
		body := s.intExpr(depth - 1)
		s.vars = s.vars[:saved]
		return &Let{Binds: []Bind{{Name: name, Val: val}}, Body: body}
	case 7: // lambda applied immediately (exercises lifting + saturation)
		return s.applyLambda(depth)
	case 8: // structurally terminating recursion template
		return s.recursion(depth)
	default: // fold a generated list
		return s.listFold(depth)
	}
}

// intLeaf generates a depth-0 int expression: a literal or an in-scope
// int variable.
func (s *genState) intLeaf() Expr {
	if vs := s.ofType(tyInt); len(vs) > 0 && s.rng.Intn(2) == 0 {
		return &Var{Name: vs[s.rng.Intn(len(vs))].name}
	}
	// Non-negative only: the surface syntax has no negative literals, so
	// a negative IntLit would not re-parse from its rendering. Negative
	// runtime values still arise through subtraction.
	return &IntLit{Val: int64(s.rng.Intn(13))}
}

// boolExpr generates a bool-typed expression.
func (s *genState) boolExpr(depth int) Expr {
	if depth <= 0 {
		return &BoolLit{Val: s.rng.Intn(2) == 0}
	}
	switch s.rng.Intn(6) {
	case 0:
		return &BoolLit{Val: s.rng.Intn(2) == 0}
	case 1, 2: // comparison
		op := [...]string{"__lt", "__le", "__gt", "__ge", "__eq", "__ne"}[s.rng.Intn(6)]
		return apps(&Var{Name: op}, s.intExpr(depth-1), s.intExpr(depth-1))
	case 3:
		return apps(&Var{Name: "and"}, s.boolExpr(depth-1), s.boolExpr(depth-1))
	case 4:
		return apps(&Var{Name: "or"}, s.boolExpr(depth-1), s.boolExpr(depth-1))
	default:
		return apps(&Var{Name: "not"}, s.boolExpr(depth-1))
	}
}

// binop builds a primitive arithmetic application via the surface
// builtins, so rendered programs read naturally after String().
func (s *genState) binop(op string, a, b Expr) Expr {
	name := map[string]string{
		"+": "__add", "-": "__sub", "*": "__mul", "/": "__div", "%": "__mod",
	}[op]
	return apps(&Var{Name: name}, a, b)
}

// applyLambda generates a lambda of 1-2 int parameters applied to
// matching arguments — the shape that stresses lambda lifting, capture
// computation, and supercombinator saturation.
func (s *genState) applyLambda(depth int) Expr {
	nparams := s.rng.Intn(2) + 1
	params := make([]string, nparams)
	saved := len(s.vars)
	for i := range params {
		params[i] = s.fresh("p")
		s.vars = append(s.vars, genVar{name: params[i], ty: tyInt})
	}
	body := s.intExpr(depth - 1)
	s.vars = s.vars[:saved]
	e := Expr(&Lam{Params: params, Body: body})
	for range params {
		e = &App{Fun: e, Arg: s.intExpr(depth - 1)}
	}
	return e
}

// recursion generates a counted loop:
//
//	let f n acc = if n <= 0 then acc else f (n-1) (step) in f k seed
//
// The counter strictly decreases, so termination is structural.
func (s *genState) recursion(depth int) Expr {
	f := s.fresh("f")
	n := s.fresh("n")
	acc := s.fresh("k")
	saved := len(s.vars)
	s.vars = append(s.vars, genVar{name: n, ty: tyInt}, genVar{name: acc, ty: tyInt})
	step := s.binop([...]string{"+", "-", "*"}[s.rng.Intn(3)],
		&Var{Name: acc}, s.intExpr(depth-2))
	s.vars = s.vars[:saved]
	body := &If{
		Cond: apps(&Var{Name: "__le"}, &Var{Name: n}, &IntLit{Val: 0}),
		Then: &Var{Name: acc},
		Else: apps(&Var{Name: f},
			s.binop("-", &Var{Name: n}, &IntLit{Val: 1}), step),
	}
	return &Let{
		Binds: []Bind{{Name: f, Val: &Lam{Params: []string{n, acc}, Body: body}}},
		Body: apps(&Var{Name: f},
			&IntLit{Val: int64(s.rng.Intn(8) + 1)}, s.intExpr(depth-1)),
	}
}

// listFold generates a bounded list build followed by a sum fold —
// list-typed structure consumed back down to an int.
func (s *genState) listFold(depth int) Expr {
	up := s.fresh("u")
	sum := s.fresh("s")
	a, b, xs := s.fresh("x"), s.fresh("y"), s.fresh("l")
	upto := &Lam{Params: []string{a, b}, Body: &If{
		Cond: apps(&Var{Name: "__gt"}, &Var{Name: a}, &Var{Name: b}),
		Then: &NilLit{},
		Else: apps(&Var{Name: "cons"}, &Var{Name: a},
			apps(&Var{Name: up}, s.binop("+", &Var{Name: a}, &IntLit{Val: 1}), &Var{Name: b})),
	}}
	sumf := &Lam{Params: []string{xs}, Body: &If{
		Cond: apps(&Var{Name: "isnil"}, &Var{Name: xs}),
		Then: &IntLit{Val: 0},
		Else: s.binop("+", apps(&Var{Name: "head"}, &Var{Name: xs}),
			apps(&Var{Name: sum}, apps(&Var{Name: "tail"}, &Var{Name: xs}))),
	}}
	lo := int64(s.rng.Intn(5))
	return &Let{
		Binds: []Bind{{Name: up, Val: upto}, {Name: sum, Val: sumf}},
		Body: apps(&Var{Name: sum},
			apps(&Var{Name: up}, &IntLit{Val: lo}, &IntLit{Val: lo + int64(s.rng.Intn(8))})),
	}
}

// ---- shrinking ----

// Shrink returns simpler candidate replacements for e, largest-first:
// every direct subexpression (hull removal), then e with single subterm
// positions replaced by a literal. Candidates are not guaranteed
// well-typed — callers re-validate with the interpreter, which the
// failure predicate in ShrinkWhile does implicitly.
func Shrink(e Expr) []Expr {
	var out []Expr
	switch x := e.(type) {
	case *App:
		out = append(out, x.Fun, x.Arg)
		for _, f := range Shrink(x.Fun) {
			out = append(out, &App{Fun: f, Arg: x.Arg})
		}
		for _, a := range Shrink(x.Arg) {
			out = append(out, &App{Fun: x.Fun, Arg: a})
		}
	case *If:
		out = append(out, x.Then, x.Else)
		for _, c := range Shrink(x.Cond) {
			out = append(out, &If{Cond: c, Then: x.Then, Else: x.Else})
		}
		for _, t := range Shrink(x.Then) {
			out = append(out, &If{Cond: x.Cond, Then: t, Else: x.Else})
		}
		for _, el := range Shrink(x.Else) {
			out = append(out, &If{Cond: x.Cond, Then: x.Then, Else: el})
		}
	case *Let:
		out = append(out, x.Body)
		for _, b := range Shrink(x.Body) {
			out = append(out, &Let{Binds: x.Binds, Body: b})
		}
		for i, bind := range x.Binds {
			for _, v := range Shrink(bind.Val) {
				binds := append([]Bind(nil), x.Binds...)
				binds[i] = Bind{Name: bind.Name, Val: v}
				out = append(out, &Let{Binds: binds, Body: x.Body})
			}
		}
	case *Lam:
		for _, b := range Shrink(x.Body) {
			out = append(out, &Lam{Params: x.Params, Body: b})
		}
	}
	// Last resort: collapse the whole position to a literal.
	if _, isLit := e.(*IntLit); !isLit {
		out = append(out, &IntLit{Val: 0})
	}
	return out
}

// ShrinkWhile greedily minimizes a failing expression: as long as some
// shrink candidate still satisfies fails, descend into it. fails must
// treat ill-typed or invalid candidates as non-failing (e.g. by checking
// they still evaluate under the reference interpreter first). maxSteps
// bounds the descent.
func ShrinkWhile(e Expr, maxSteps int, fails func(Expr) bool) Expr {
	for step := 0; step < maxSteps; step++ {
		progressed := false
		for _, cand := range Shrink(e) {
			if fails(cand) {
				e = cand
				progressed = true
				break
			}
		}
		if !progressed {
			return e
		}
	}
	return e
}
