package lang

import (
	"fmt"
	"slices"

	"dgr/internal/gm"
	"dgr/internal/graph"
)

// CompileSupers parses, lambda-lifts, and compiles a program. The
// supercombinators are registered in prog; the returned vertex is the root
// of the main expression's graph.
func CompileSupers(store *graph.Store, prog *gm.Program, src string) (*graph.Vertex, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sc, err := Lift(e)
	if err != nil {
		return nil, err
	}
	return CompileLifted(store, prog, sc)
}

// CompileLifted registers the lifted program's supercombinators in prog
// and emits the main expression as a graph rooted at the returned vertex.
// Mutually recursive supercombinators resolve through the table: indices
// are assigned to the whole batch before any body is compiled.
func CompileLifted(store *graph.Store, prog *gm.Program, sc *SCProg) (*graph.Vertex, error) {
	base := prog.Len()
	masks := strictMasks(sc)
	compiled := make([]*gm.Super, len(sc.Supers))
	c := &bodyCompiler{
		index:  sc.Index,
		base:   base,
		code:   make([]gm.Instr, 0, 4*stackRoom),
		spines: make([]Expr, 0, stackRoom),
	}
	for i, s := range sc.Supers {
		sup, err := c.compileSuper(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		sup.Strict = masks[i]
		compiled[i] = sup
	}
	if got := prog.AddBatch(compiled); got != base {
		return nil, fmt.Errorf("gm: concurrent compile moved the table base (%d != %d)", got, base)
	}
	em := &emitter{
		b:      graph.NewBuilder(store, -1),
		index:  sc.Index,
		base:   base,
		supers: make([]*graph.Vertex, len(sc.Supers)),
		spines: c.spines,
	}
	root, err := em.emit(sc.Main)
	if err != nil {
		return nil, err
	}
	if err := em.b.Err(); err != nil {
		return nil, err
	}
	return root, nil
}

// stackRoom is the room a per-compile stack starts with: enough for the
// nesting of most programs, so that a stack seldom grows.
const stackRoom = 16

// named is one binding of a scope.
type named[T any] struct {
	name string
	val  T
}

// scope holds the names bound around an expression, innermost last, on one
// stack per compile: a construct that binds pushes, and pops when it is
// done. A lookup finds the latest binding of a name, as it would in a map
// copied and rebound at every let.
type scope[T any] []named[T]

func (s scope[T]) lookup(name string) (T, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].name == name {
			return s[i].val, true
		}
	}
	var zero T
	return zero, false
}

func (s *scope[T]) push(name string, val T) { *s = append(*s, named[T]{name, val}) }

// ---- supercombinator body → instructions ----

// binding classifies a name in scope inside a supercombinator body.
type binding struct {
	isLocal bool
	idx     int // parameter position or local slot
}

// bodyCompiler compiles supercombinator bodies to instructions, tracking
// the stack height and local-slot usage. Its buffers serve every body of
// one compile: a body is built in code and copied out at its final size.
type bodyCompiler struct {
	index   map[string]int // the program's supers, by name
	base    int            // the table index of the program's first super
	code    []gm.Instr
	env     scope[binding]
	spines  []Expr // stack of spine arguments
	nlocals int
	depth   int
	maxHigh int
}

func (c *bodyCompiler) compileSuper(s SC) (*gm.Super, error) {
	c.code, c.env = c.code[:0], c.env[:0]
	c.nlocals, c.depth, c.maxHigh = 0, 0, 0
	for i, p := range s.Params {
		c.env.push(p, binding{idx: i})
	}
	if err := c.expr(s.Body); err != nil {
		return nil, err
	}
	c.patchTail()
	return &gm.Super{
		Name:    s.Name,
		Arity:   s.Arity(),
		Code:    slices.Clone(c.code),
		NLocals: c.nlocals,
		MaxHigh: c.maxHigh,
	}, nil
}

// emit appends an instruction, tracking the stack effect.
func (c *bodyCompiler) emit(in gm.Instr, pushPop int) {
	c.code = append(c.code, in)
	c.depth += pushPop
	if c.depth > c.maxHigh {
		c.maxHigh = c.depth
	}
}

// patchTail rewrites the final value-producing instruction into its
// terminal Update form, so the redex root is written directly instead of
// through an extra indirection vertex.
func (c *bodyCompiler) patchTail() {
	last := &c.code[len(c.code)-1]
	switch last.Op {
	case gm.OpMkApp:
		last.Op = gm.OpUpdateApp
	case gm.OpMkPrimApp:
		last.Op = gm.OpUpdatePrimApp
	case gm.OpPushInt:
		*last = gm.Instr{Op: gm.OpUpdateLeaf, A: int64(graph.KindInt), B: last.A}
	case gm.OpPushBool:
		*last = gm.Instr{Op: gm.OpUpdateLeaf, A: int64(graph.KindBool), B: last.A}
	case gm.OpPushNil:
		*last = gm.Instr{Op: gm.OpUpdateLeaf, A: int64(graph.KindNil)}
	case gm.OpPushSuper:
		*last = gm.Instr{Op: gm.OpUpdateLeaf, A: int64(graph.KindSuper), B: last.A}
	case gm.OpPushComb:
		*last = gm.Instr{Op: gm.OpUpdateLeaf, A: int64(graph.KindComb), B: last.A}
	case gm.OpPushPrim:
		*last = gm.Instr{Op: gm.OpUpdateLeaf, A: int64(graph.KindPrim), B: last.A}
	default:
		// OpPushArg, OpPushLocal: the result is an existing vertex; the
		// root collapses to an indirection.
		c.emit(gm.Instr{Op: gm.OpUpdate}, -1)
	}
}

// spine decomposes nested applications into head and argument list,
// appending the arguments, in order, to buf.
func spine(e Expr, buf []Expr) (Expr, []Expr) {
	mark := len(buf)
	for {
		app, ok := e.(*App)
		if !ok {
			break
		}
		buf = append(buf, app.Arg)
		e = app.Fun
	}
	slices.Reverse(buf[mark:])
	return e, buf
}

// expr compiles e, leaving one vertex on the stack.
func (c *bodyCompiler) expr(e Expr) error {
	switch x := e.(type) {
	case *Var:
		return c.name(x.Name)
	case *IntLit:
		c.emit(gm.Instr{Op: gm.OpPushInt, A: x.Val}, 1)
	case *BoolLit:
		var n int64
		if x.Val {
			n = 1
		}
		c.emit(gm.Instr{Op: gm.OpPushBool, A: n}, 1)
	case *NilLit:
		c.emit(gm.Instr{Op: gm.OpPushNil}, 1)
	case *If:
		for _, sub := range [...]Expr{x.Cond, x.Then, x.Else} {
			if err := c.expr(sub); err != nil {
				return err
			}
		}
		c.emit(gm.Instr{Op: gm.OpMkPrimApp, A: int64(graph.PrimIf), B: 3}, 1-3)
	case *App:
		return c.app(e)
	case *Let:
		return c.let(x)
	case *Lam:
		return fmt.Errorf("gm: lambda survived lifting")
	default:
		return fmt.Errorf("gm: unknown expression %T", e)
	}
	return nil
}

// saturatedPrim is the flattening test both back ends of the compiled
// pipeline share: the spine's head names a builtin primitive (not shadowed
// by a binding in env or a supercombinator) and the spine supplies at least
// its arity of arguments.
func saturatedPrim[T any](head Expr, nargs int, env scope[T], supers map[string]int) (graph.Prim, bool) {
	v, ok := head.(*Var)
	if !ok {
		return 0, false
	}
	if _, bound := env.lookup(v.Name); bound {
		return 0, false
	}
	if _, sc := supers[v.Name]; sc {
		return 0, false
	}
	k, val, ok := Builtin(v.Name)
	if !ok || k != graph.KindPrim {
		return 0, false
	}
	p := graph.Prim(val)
	return p, p.Arity() > 0 && nargs >= p.Arity()
}

// app compiles an application spine. A head that statically saturates a
// strict primitive becomes one flattened primapp vertex — the big win over
// interpreted combinator rewriting, which reaches the same flat form only
// after several spine-collection task steps.
func (c *bodyCompiler) app(e Expr) error {
	mark := len(c.spines)
	var head Expr
	head, c.spines = spine(e, c.spines)
	err := c.spine(head, c.spines[mark:])
	c.spines = c.spines[:mark]
	return err
}

func (c *bodyCompiler) spine(head Expr, args []Expr) error {
	if p, ok := saturatedPrim(head, len(args), c.env, c.index); ok {
		ar := p.Arity()
		for _, a := range args[:ar] {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(gm.Instr{Op: gm.OpMkPrimApp, A: int64(p), B: int64(ar)}, 1-ar)
		return c.apps(args[ar:])
	}
	if err := c.expr(head); err != nil {
		return err
	}
	return c.apps(args)
}

// apps applies the already-pushed function to each argument in turn.
func (c *bodyCompiler) apps(args []Expr) error {
	for _, a := range args {
		if err := c.expr(a); err != nil {
			return err
		}
		c.emit(gm.Instr{Op: gm.OpMkApp}, -1)
	}
	return nil
}

// name compiles a variable reference.
func (c *bodyCompiler) name(name string) error {
	if b, ok := c.env.lookup(name); ok {
		if b.isLocal {
			c.emit(gm.Instr{Op: gm.OpPushLocal, A: int64(b.idx)}, 1)
		} else {
			c.emit(gm.Instr{Op: gm.OpPushArg, A: int64(b.idx)}, 1)
		}
		return nil
	}
	if idx, ok := c.index[name]; ok {
		c.emit(gm.Instr{Op: gm.OpPushSuper, A: int64(c.base + idx)}, 1)
		return nil
	}
	if k, val, ok := Builtin(name); ok {
		if k == graph.KindComb {
			c.emit(gm.Instr{Op: gm.OpPushComb, A: val}, 1)
		} else {
			c.emit(gm.Instr{Op: gm.OpPushPrim, A: val}, 1)
		}
		return nil
	}
	return fmt.Errorf("gm: unbound variable %q", name)
}

// let compiles a residual (non-lambda) let group: each binding gets a
// per-invocation hole slot, bodies are built referencing the holes, and
// the holes are knotted — the same shared-knot shape the interpreted
// compiler builds statically, but per call.
func (c *bodyCompiler) let(x *Let) error {
	mark := len(c.env)
	for _, b := range x.Binds {
		c.emit(gm.Instr{Op: gm.OpMkHole, A: int64(c.nlocals)}, 0)
		c.env.push(b.Name, binding{isLocal: true, idx: c.nlocals})
		c.nlocals++
	}
	for i, b := range x.Binds {
		if err := c.expr(b.Val); err != nil {
			return err
		}
		c.emit(gm.Instr{Op: gm.OpKnot, A: int64(c.env[mark+i].val.idx)}, -1)
	}
	err := c.expr(x.Body)
	c.env = c.env[:mark]
	return err
}

// ---- main-expression emission ----

// emitter lowers the lambda-free main expression to graph vertices,
// sharing leaf vertices per compile (the same discipline as the
// interpreted compiler) and building static knots for top-level lets.
type emitter struct {
	b      *graph.Builder
	index  map[string]int  // the program's supers, by name
	base   int             // the table index of the program's first super
	supers []*graph.Vertex // per super of the program: its shared leaf
	leaves
	env    scope[*graph.Vertex]
	spines []Expr          // stack of spine arguments
	ops    []*graph.Vertex // stack of primitive operands
}

func (em *emitter) emit(e Expr) (*graph.Vertex, error) {
	switch x := e.(type) {
	case *Var:
		return em.name(x.Name)
	case *IntLit:
		return em.b.Int(x.Val), nil
	case *BoolLit:
		return em.b.Bool(x.Val), nil
	case *NilLit:
		return em.b.Nil(), nil
	case *If:
		c, err := em.emit(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := em.emit(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := em.emit(x.Else)
		if err != nil {
			return nil, err
		}
		return em.b.PrimApp(graph.PrimIf, c, t, els), nil
	case *App:
		mark := len(em.spines)
		var head Expr
		head, em.spines = spine(e, em.spines)
		v, err := em.spine(head, em.spines[mark:])
		em.spines = em.spines[:mark]
		return v, err
	case *Let:
		mark := len(em.env)
		for _, b := range x.Binds {
			em.env.push(b.Name, em.b.Hole())
		}
		for i, b := range x.Binds {
			v, err := em.emit(b.Val)
			if err != nil {
				return nil, err
			}
			em.b.Knot(em.env[mark+i].val, v)
		}
		v, err := em.emit(x.Body)
		em.env = em.env[:mark]
		return v, err
	case *Lam:
		return nil, fmt.Errorf("gm: lambda survived lifting")
	default:
		return nil, fmt.Errorf("gm: unknown expression %T", e)
	}
}

func (em *emitter) spine(head Expr, args []Expr) (*graph.Vertex, error) {
	// Statically saturated strict primitives flatten here too, so the main
	// graph starts in the same normal shape compiled bodies build.
	if p, ok := saturatedPrim(head, len(args), em.env, em.index); ok {
		mark, ar := len(em.ops), p.Arity()
		for _, a := range args[:ar] {
			w, err := em.emit(a)
			if err != nil {
				return nil, err
			}
			em.ops = append(em.ops, w)
		}
		v := em.b.PrimApp(p, em.ops[mark:]...)
		em.ops = em.ops[:mark]
		return em.apps(v, args[ar:])
	}
	f, err := em.emit(head)
	if err != nil {
		return nil, err
	}
	return em.apps(f, args)
}

func (em *emitter) apps(f *graph.Vertex, args []Expr) (*graph.Vertex, error) {
	for _, a := range args {
		w, err := em.emit(a)
		if err != nil {
			return nil, err
		}
		f = em.b.App(f, w)
	}
	return f, nil
}

func (em *emitter) name(name string) (*graph.Vertex, error) {
	if v, ok := em.env.lookup(name); ok {
		return v, nil
	}
	if idx, ok := em.index[name]; ok {
		v := &em.supers[idx]
		if *v == nil {
			*v = em.b.Super(em.base + idx)
		}
		return *v, nil
	}
	if v := em.builtin(em.b, name); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("gm: unbound variable %q", name)
}
