package lang

import (
	"fmt"

	"dgr/internal/graph"
)

// term is the compiler's intermediate representation: lambda-free
// applicative terms over graph leaves and still-to-abstract variables.
type term interface{ termNode() }

type tVar struct{ name string }
type tComb struct{ c graph.Comb }
type tPrim struct{ p graph.Prim }
type tInt struct{ n int64 }
type tBool struct{ v bool }
type tNil struct{}
type tLeaf struct{ v *graph.Vertex } // pre-allocated vertex (letrec holes)
type tApp struct{ fun, arg term }

func (tVar) termNode()  {}
func (tComb) termNode() {}
func (tPrim) termNode() {}
func (tInt) termNode()  {}
func (tBool) termNode() {}
func (tNil) termNode()  {}
func (tLeaf) termNode() {}
func (tApp) termNode()  {}

func ap(f, a term) term { return tApp{fun: f, arg: a} }

// builtins maps surface names to terms: every primitive under the builtin
// name graph's table gives it (if has none, it is syntax), plus fix.
var builtins = func() map[string]term {
	m := map[string]term{"fix": tComb{c: graph.CombY}}
	for p := graph.Prim(1); p < graph.PrimEnd; p++ {
		if name := p.Builtin(); name != "" {
			m[name] = tPrim{p: p}
		}
	}
	return m
}()

// Builtin resolves a builtin surface name to its graph leaf label
// (KindPrim or KindComb). It is the compiled backend's view of the
// builtins table.
func Builtin(name string) (graph.Kind, int64, bool) {
	switch t := builtins[name].(type) {
	case tPrim:
		return graph.KindPrim, int64(t.p), true
	case tComb:
		return graph.KindComb, int64(t.c), true
	default:
		return 0, 0, false
	}
}

// Compiler translates expressions to combinator graphs.
type Compiler struct {
	store *graph.Store
	b     *graph.Builder
	combs map[graph.Comb]*graph.Vertex
	prims map[graph.Prim]*graph.Vertex
}

// NewCompiler builds a compiler allocating into store.
func NewCompiler(store *graph.Store) *Compiler {
	return &Compiler{
		store: store,
		b:     graph.NewBuilder(store, -1),
		combs: make(map[graph.Comb]*graph.Vertex),
		prims: make(map[graph.Prim]*graph.Vertex),
	}
}

// Compile translates an expression to a graph and returns its root vertex.
func (c *Compiler) Compile(e Expr) (*graph.Vertex, error) {
	t, err := c.toTerm(e, map[string]term{})
	if err != nil {
		return nil, err
	}
	v := c.emit(t)
	if err := c.b.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// CompileString parses and compiles a program.
func CompileString(store *graph.Store, src string) (*graph.Vertex, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewCompiler(store).Compile(e)
}

// toTerm desugars and bracket-abstracts an expression. env maps in-scope
// names to terms (tVar for lambda parameters, tLeaf holes for letrec
// bindings).
func (c *Compiler) toTerm(e Expr, env map[string]term) (term, error) {
	switch x := e.(type) {
	case Var:
		if t, ok := env[x.Name]; ok {
			return t, nil
		}
		if t, ok := builtins[x.Name]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("unbound variable %q", x.Name)
	case IntLit:
		return tInt{n: x.Val}, nil
	case BoolLit:
		return tBool{v: x.Val}, nil
	case NilLit:
		return tNil{}, nil
	case App:
		f, err := c.toTerm(x.Fun, env)
		if err != nil {
			return nil, err
		}
		a, err := c.toTerm(x.Arg, env)
		if err != nil {
			return nil, err
		}
		return ap(f, a), nil
	case If:
		cond, err := c.toTerm(x.Cond, env)
		if err != nil {
			return nil, err
		}
		thn, err := c.toTerm(x.Then, env)
		if err != nil {
			return nil, err
		}
		els, err := c.toTerm(x.Else, env)
		if err != nil {
			return nil, err
		}
		return ap(ap(ap(tPrim{p: graph.PrimIf}, cond), thn), els), nil
	case Lam:
		inner := copyEnv(env)
		for _, p := range x.Params {
			inner[p] = tVar{name: p}
		}
		body, err := c.toTerm(x.Body, inner)
		if err != nil {
			return nil, err
		}
		for i := len(x.Params) - 1; i >= 0; i-- {
			body = abstract(x.Params[i], body)
		}
		return body, nil
	case Let:
		// A binding that captures an enclosing lambda parameter cannot be
		// a static graph knot (its value differs per call); desugar such
		// lets to applications, with fix for self-recursive bindings.
		if capturesLambdaVar(x, env) {
			desugared, err := desugarLet(x)
			if err != nil {
				return nil, err
			}
			return c.toTerm(desugared, env)
		}
		// Otherwise the (possibly mutually recursive) bindings become
		// graph knots: each name is bound to a Hole vertex; binding bodies
		// are emitted and the holes back-patched to indirections, sharing
		// every binding's subgraph across all uses and calls.
		inner := copyEnv(env)
		holes := make([]*graph.Vertex, len(x.Binds))
		for i, b := range x.Binds {
			holes[i] = c.b.Hole()
			inner[b.Name] = tLeaf{v: holes[i]}
		}
		for i, b := range x.Binds {
			t, err := c.toTerm(b.Val, inner)
			if err != nil {
				return nil, err
			}
			c.b.Knot(holes[i], c.emit(t))
		}
		return c.toTerm(x.Body, inner)
	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// capturesLambdaVar reports whether any binding value of the let has a
// free variable that is currently bound to a lambda parameter (tVar).
func capturesLambdaVar(x Let, env map[string]term) bool {
	letNames := make(map[string]bool, len(x.Binds))
	for _, b := range x.Binds {
		letNames[b.Name] = true
	}
	for _, b := range x.Binds {
		free := map[string]bool{}
		freeVars(b.Val, copyBound(letNames), free)
		for name := range free {
			if _, isVar := env[name].(tVar); isVar {
				return true
			}
		}
	}
	return false
}

// desugarLet rewrites let x1 = e1; ...; xn = en in body into nested
// applications (\x1. ... (\xn. body) en' ...) e1', where a self-recursive
// ei becomes fix (\xi. ei). Forward and mutual references between the
// bindings are not expressible this way and are rejected.
func desugarLet(x Let) (Expr, error) {
	expr := x.Body
	for i := len(x.Binds) - 1; i >= 0; i-- {
		b := x.Binds[i]
		free := map[string]bool{}
		freeVars(b.Val, map[string]bool{}, free)
		for j := i + 1; j < len(x.Binds); j++ {
			if x.Binds[j].Name != b.Name && free[x.Binds[j].Name] {
				return nil, fmt.Errorf(
					"let binding %q refers to later binding %q while capturing a lambda parameter; mutual recursion is only supported for top-level (parameter-free) bindings",
					b.Name, x.Binds[j].Name)
			}
		}
		val := b.Val
		if free[b.Name] {
			val = App{Fun: Var{Name: "fix"}, Arg: Lam{Params: []string{b.Name}, Body: val}}
		}
		expr = App{Fun: Lam{Params: []string{b.Name}, Body: expr}, Arg: val}
	}
	return expr, nil
}

func copyEnv(env map[string]term) map[string]term {
	c := make(map[string]term, len(env))
	for k, v := range env {
		c[k] = v
	}
	return c
}

// occurs reports whether variable x appears free in t.
func occurs(x string, t term) bool {
	switch v := t.(type) {
	case tVar:
		return v.name == x
	case tApp:
		return occurs(x, v.fun) || occurs(x, v.arg)
	default:
		return false
	}
}

// abstract is Turner-style bracket abstraction of x out of t, producing a
// combinator term over S, K, I, B, C with the S', B', C' optimizations.
func abstract(x string, t term) term {
	if !occurs(x, t) {
		return ap(tComb{c: graph.CombK}, t)
	}
	switch v := t.(type) {
	case tVar: // occurs ⇒ v.name == x
		return tComb{c: graph.CombI}
	case tApp:
		fFree := occurs(x, v.fun)
		aFree := occurs(x, v.arg)
		switch {
		case fFree && aFree:
			fa := abstract(x, v.fun)
			aa := abstract(x, v.arg)
			// S (B k f) g → S' k f g
			if bk, k, f, ok := matchB(fa); ok && bk {
				return ap(ap(ap(tComb{c: graph.CombSP}, k), f), aa)
			}
			return ap(ap(tComb{c: graph.CombS}, fa), aa)
		case fFree:
			fa := abstract(x, v.fun)
			// C (B k f) g → C' k f g
			if bk, k, f, ok := matchB(fa); ok && bk {
				return ap(ap(ap(tComb{c: graph.CombCP}, k), f), v.arg)
			}
			return ap(ap(tComb{c: graph.CombC}, fa), v.arg)
		default: // aFree
			// η-reduction: λx. f x = f when x ∉ f.
			if av, ok := v.arg.(tVar); ok && av.name == x {
				return v.fun
			}
			aa := abstract(x, v.arg)
			// B (k f) g → B' k f g
			if ka, ok := v.fun.(tApp); ok {
				return ap(ap(ap(tComb{c: graph.CombBP}, ka.fun), ka.arg), aa)
			}
			return ap(ap(tComb{c: graph.CombB}, v.fun), aa)
		}
	default:
		// Unreachable: occurs(x, t) is false for every non-var, non-app.
		return ap(tComb{c: graph.CombK}, t)
	}
}

// matchB matches the shape ((B k) f).
func matchB(t term) (isB bool, k, f term, ok bool) {
	outer, okOuter := t.(tApp)
	if !okOuter {
		return false, nil, nil, false
	}
	inner, okInner := outer.fun.(tApp)
	if !okInner {
		return false, nil, nil, false
	}
	cb, okComb := inner.fun.(tComb)
	if !okComb || cb.c != graph.CombB {
		return false, nil, nil, false
	}
	return true, inner.arg, outer.arg, true
}

// emit lowers a term to graph vertices. Combinator and primitive leaves
// are shared; applications are fresh.
func (c *Compiler) emit(t term) *graph.Vertex {
	switch v := t.(type) {
	case tInt:
		return c.b.Int(v.n)
	case tBool:
		return c.b.Bool(v.v)
	case tNil:
		return c.b.Nil()
	case tComb:
		if lv, ok := c.combs[v.c]; ok {
			return lv
		}
		lv := c.b.Comb(v.c)
		c.combs[v.c] = lv
		return lv
	case tPrim:
		if lv, ok := c.prims[v.p]; ok {
			return lv
		}
		lv := c.b.Prim(v.p)
		c.prims[v.p] = lv
		return lv
	case tLeaf:
		return v.v
	case tApp:
		return c.b.App(c.emit(v.fun), c.emit(v.arg))
	case tVar:
		// A free variable survived abstraction: compiler bug or unbound
		// name that slipped through; emit a hole so it deadlocks visibly.
		return c.b.Hole()
	default:
		return c.b.Hole()
	}
}
