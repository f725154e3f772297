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
type tApp struct{ fun, arg term }    // taken as *tApp from a Compiler's slab

func (tVar) termNode()  {}
func (tComb) termNode() {}
func (tPrim) termNode() {}
func (tInt) termNode()  {}
func (tBool) termNode() {}
func (tNil) termNode()  {}
func (tLeaf) termNode() {}
func (*tApp) termNode() {}

// ap builds the application node f a: a node abstraction let go if there
// is one, else the next of the compiler's slab.
func (c *Compiler) ap(f, a term) term {
	n := c.free
	if n != nil {
		c.free, _ = n.fun.(*tApp)
	} else {
		n = c.slab.new()
	}
	n.fun, n.arg = f, a
	return n
}

// release returns n, which nothing points to any more, for ap to reuse.
// Every application node is referenced from one place at most: toTerm
// builds trees, and abstraction puts each subterm of its input into its
// output at most once. So a node abstraction takes apart is dead.
func (c *Compiler) release(n *tApp) {
	n.fun, n.arg = c.free, nil
	c.free = n
}

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

// leaves holds the combinator and primitive leaf vertices of one compile,
// each built on first use and shared by every later one.
type leaves struct {
	combs [graph.CombEnd]*graph.Vertex
	prims [graph.PrimEnd]*graph.Vertex
}

func (l *leaves) comb(b *graph.Builder, c graph.Comb) *graph.Vertex {
	if l.combs[c] == nil {
		l.combs[c] = b.Comb(c)
	}
	return l.combs[c]
}

func (l *leaves) prim(b *graph.Builder, p graph.Prim) *graph.Vertex {
	if l.prims[p] == nil {
		l.prims[p] = b.Prim(p)
	}
	return l.prims[p]
}

// builtin returns the shared leaf of a builtin name, or nil if name is
// none.
func (l *leaves) builtin(b *graph.Builder, name string) *graph.Vertex {
	k, val, ok := Builtin(name)
	switch {
	case !ok:
		return nil
	case k == graph.KindComb:
		return l.comb(b, graph.Comb(val))
	default:
		return l.prim(b, graph.Prim(val))
	}
}

// Compiler translates expressions to combinator graphs.
type Compiler struct {
	store *graph.Store
	b     *graph.Builder
	leaves
	env  scope[term] // tVar for lambda parameters, tLeaf holes for letrec bindings
	slab slab[tApp]
	free *tApp // nodes abstraction let go, linked through fun
}

// NewCompiler builds a compiler allocating into store.
func NewCompiler(store *graph.Store) *Compiler {
	return &Compiler{store: store, b: graph.NewBuilder(store, -1)}
}

// Compile translates an expression to a graph and returns its root vertex.
func (c *Compiler) Compile(e Expr) (*graph.Vertex, error) {
	t, err := c.toTerm(e)
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

// toTerm desugars and bracket-abstracts an expression under the names in
// c.env.
func (c *Compiler) toTerm(e Expr) (term, error) {
	switch x := e.(type) {
	case *Var:
		if t, ok := c.env.lookup(x.Name); ok {
			return t, nil
		}
		if t, ok := builtins[x.Name]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("unbound variable %q", x.Name)
	case *IntLit:
		return tInt{n: x.Val}, nil
	case *BoolLit:
		return tBool{v: x.Val}, nil
	case *NilLit:
		return tNil{}, nil
	case *App:
		f, err := c.toTerm(x.Fun)
		if err != nil {
			return nil, err
		}
		a, err := c.toTerm(x.Arg)
		if err != nil {
			return nil, err
		}
		return c.ap(f, a), nil
	case *If:
		cond, err := c.toTerm(x.Cond)
		if err != nil {
			return nil, err
		}
		thn, err := c.toTerm(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.toTerm(x.Else)
		if err != nil {
			return nil, err
		}
		return c.ap(c.ap(c.ap(tPrim{p: graph.PrimIf}, cond), thn), els), nil
	case *Lam:
		mark := len(c.env)
		for _, p := range x.Params {
			c.env.push(p, tVar{name: p})
		}
		body, err := c.toTerm(x.Body)
		c.env = c.env[:mark]
		if err != nil {
			return nil, err
		}
		for i := len(x.Params) - 1; i >= 0; i-- {
			body = c.abstract(x.Params[i], body)
		}
		return body, nil
	case *Let:
		// A binding that captures an enclosing lambda parameter cannot be
		// a static graph knot (its value differs per call); desugar such
		// lets to applications, with fix for self-recursive bindings.
		if c.capturesLambdaVar(x) {
			desugared, err := desugarLet(x)
			if err != nil {
				return nil, err
			}
			return c.toTerm(desugared)
		}
		// Otherwise the (possibly mutually recursive) bindings become
		// graph knots: each name is bound to a Hole vertex; binding bodies
		// are emitted and the holes back-patched to indirections, sharing
		// every binding's subgraph across all uses and calls.
		mark := len(c.env)
		for _, b := range x.Binds {
			c.env.push(b.Name, tLeaf{v: c.b.Hole()})
		}
		for i, b := range x.Binds {
			t, err := c.toTerm(b.Val)
			if err != nil {
				return nil, err
			}
			c.b.Knot(c.env[mark+i].val.(tLeaf).v, c.emit(t))
		}
		t, err := c.toTerm(x.Body)
		c.env = c.env[:mark]
		return t, err
	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// capturesLambdaVar reports whether any binding value of the let has a
// free variable that is currently bound to a lambda parameter (tVar).
func (c *Compiler) capturesLambdaVar(x *Let) bool {
	letNames := make(map[string]bool, len(x.Binds))
	for _, b := range x.Binds {
		letNames[b.Name] = true
	}
	free := map[string]bool{}
	for _, b := range x.Binds {
		freeVars(b.Val, letNames, free)
	}
	for name := range free {
		if t, _ := c.env.lookup(name); t != nil {
			if _, isVar := t.(tVar); isVar {
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
func desugarLet(x *Let) (Expr, error) {
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
			val = &App{Fun: &Var{Name: "fix"}, Arg: &Lam{Params: []string{b.Name}, Body: val}}
		}
		expr = &App{Fun: &Lam{Params: []string{b.Name}, Body: expr}, Arg: val}
	}
	return expr, nil
}

// occurs reports whether variable x appears free in t.
func occurs(x string, t term) bool {
	switch v := t.(type) {
	case tVar:
		return v.name == x
	case *tApp:
		return occurs(x, v.fun) || occurs(x, v.arg)
	default:
		return false
	}
}

// abstract is Turner-style bracket abstraction of x out of t, producing a
// combinator term over S, K, I, B, C with the S', B', C' optimizations.
func (c *Compiler) abstract(x string, t term) term {
	if !occurs(x, t) {
		return c.ap(tComb{c: graph.CombK}, t)
	}
	switch v := t.(type) {
	case tVar: // occurs ⇒ v.name == x
		return tComb{c: graph.CombI}
	case *tApp:
		fun, arg := v.fun, v.arg
		c.release(v)
		fFree := occurs(x, fun)
		aFree := occurs(x, arg)
		switch {
		case fFree && aFree:
			fa := c.abstract(x, fun)
			aa := c.abstract(x, arg)
			// S (B k f) g → S' k f g
			if k, f, ok := c.matchB(fa); ok {
				return c.ap(c.ap(c.ap(tComb{c: graph.CombSP}, k), f), aa)
			}
			return c.ap(c.ap(tComb{c: graph.CombS}, fa), aa)
		case fFree:
			fa := c.abstract(x, fun)
			// C (B k f) g → C' k f g
			if k, f, ok := c.matchB(fa); ok {
				return c.ap(c.ap(c.ap(tComb{c: graph.CombCP}, k), f), arg)
			}
			return c.ap(c.ap(tComb{c: graph.CombC}, fa), arg)
		default: // aFree
			// η-reduction: λx. f x = f when x ∉ f.
			if av, ok := arg.(tVar); ok && av.name == x {
				return fun
			}
			aa := c.abstract(x, arg)
			// B (k f) g → B' k f g
			if ka, ok := fun.(*tApp); ok {
				k, f := ka.fun, ka.arg
				c.release(ka)
				return c.ap(c.ap(c.ap(tComb{c: graph.CombBP}, k), f), aa)
			}
			return c.ap(c.ap(tComb{c: graph.CombB}, fun), aa)
		}
	default:
		// Unreachable: occurs(x, t) is false for every non-var, non-app.
		return c.ap(tComb{c: graph.CombK}, t)
	}
}

// matchB matches the shape ((B k) f), which abstraction has just built,
// and releases its two nodes.
func (c *Compiler) matchB(t term) (k, f term, ok bool) {
	outer, ok := t.(*tApp)
	if !ok {
		return nil, nil, false
	}
	inner, ok := outer.fun.(*tApp)
	if !ok {
		return nil, nil, false
	}
	if cb, ok := inner.fun.(tComb); !ok || cb.c != graph.CombB {
		return nil, nil, false
	}
	k, f = inner.arg, outer.arg
	c.release(outer)
	c.release(inner)
	return k, f, true
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
		return c.comb(c.b, v.c)
	case tPrim:
		return c.prim(c.b, v.p)
	case tLeaf:
		return v.v
	case *tApp:
		return c.b.App(c.emit(v.fun), c.emit(v.arg))
	case tVar:
		// A free variable survived abstraction: compiler bug or unbound
		// name that slipped through; emit a hole so it deadlocks visibly.
		return c.b.Hole()
	default:
		return c.b.Hole()
	}
}
