package lang

import (
	"fmt"

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
	scIdx := make(map[string]int, len(sc.Supers))
	for name, i := range sc.Index {
		scIdx[name] = base + i
	}
	masks := strictMasks(sc)
	compiled := make([]*gm.Super, len(sc.Supers))
	for i, s := range sc.Supers {
		sup, err := compileSuper(s, scIdx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		sup.Strict = masks[s.Name]
		compiled[i] = sup
	}
	if got := prog.AddBatch(compiled); got != base {
		return nil, fmt.Errorf("gm: concurrent compile moved the table base (%d != %d)", got, base)
	}
	em := &emitter{
		b:      graph.NewBuilder(store, -1),
		scIdx:  scIdx,
		combs:  make(map[graph.Comb]*graph.Vertex),
		prims:  make(map[graph.Prim]*graph.Vertex),
		supers: make(map[int]*graph.Vertex),
	}
	root, err := em.emit(sc.Main, map[string]*graph.Vertex{})
	if err != nil {
		return nil, err
	}
	if err := em.b.Err(); err != nil {
		return nil, err
	}
	return root, nil
}

// ---- supercombinator body → instructions ----

// binding classifies a name in scope inside a supercombinator body.
type binding struct {
	isLocal bool
	idx     int // parameter position or local slot
}

// bodyCompiler compiles one supercombinator body to instructions,
// tracking the stack height and local-slot usage.
type bodyCompiler struct {
	scIdx   map[string]int
	code    []gm.Instr
	nlocals int
	depth   int
	maxHigh int
}

func compileSuper(s SC, scIdx map[string]int) (*gm.Super, error) {
	c := &bodyCompiler{scIdx: scIdx}
	env := make(map[string]binding, len(s.Params))
	for i, p := range s.Params {
		env[p] = binding{idx: i}
	}
	if err := c.expr(s.Body, env); err != nil {
		return nil, err
	}
	c.patchTail()
	return &gm.Super{
		Name:    s.Name,
		Arity:   s.Arity(),
		Code:    c.code,
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

// spine decomposes nested applications into head and argument list.
func spine(e Expr) (Expr, []Expr) {
	var args []Expr
	for {
		app, ok := e.(App)
		if !ok {
			break
		}
		args = append(args, app.Arg)
		e = app.Fun
	}
	for i, j := 0, len(args)-1; i < j; i, j = i+1, j-1 {
		args[i], args[j] = args[j], args[i]
	}
	return e, args
}

// expr compiles e, leaving one vertex on the stack.
func (c *bodyCompiler) expr(e Expr, env map[string]binding) error {
	switch x := e.(type) {
	case Var:
		return c.name(x.Name, env)
	case IntLit:
		c.emit(gm.Instr{Op: gm.OpPushInt, A: x.Val}, 1)
	case BoolLit:
		var n int64
		if x.Val {
			n = 1
		}
		c.emit(gm.Instr{Op: gm.OpPushBool, A: n}, 1)
	case NilLit:
		c.emit(gm.Instr{Op: gm.OpPushNil}, 1)
	case If:
		for _, sub := range []Expr{x.Cond, x.Then, x.Else} {
			if err := c.expr(sub, env); err != nil {
				return err
			}
		}
		c.emit(gm.Instr{Op: gm.OpMkPrimApp, A: int64(graph.PrimIf), B: 3}, 1-3)
	case App:
		return c.app(x, env)
	case Let:
		return c.let(x, env)
	case Lam:
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
func saturatedPrim[B any](head Expr, nargs int, env map[string]B, scIdx map[string]int) (graph.Prim, bool) {
	v, ok := head.(Var)
	if !ok {
		return 0, false
	}
	if _, bound := env[v.Name]; bound {
		return 0, false
	}
	if _, sc := scIdx[v.Name]; sc {
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
func (c *bodyCompiler) app(e App, env map[string]binding) error {
	head, args := spine(e)
	if p, ok := saturatedPrim(head, len(args), env, c.scIdx); ok {
		ar := p.Arity()
		for _, a := range args[:ar] {
			if err := c.expr(a, env); err != nil {
				return err
			}
		}
		c.emit(gm.Instr{Op: gm.OpMkPrimApp, A: int64(p), B: int64(ar)}, 1-ar)
		return c.apps(args[ar:], env)
	}
	if err := c.expr(head, env); err != nil {
		return err
	}
	return c.apps(args, env)
}

// apps applies the already-pushed function to each argument in turn.
func (c *bodyCompiler) apps(args []Expr, env map[string]binding) error {
	for _, a := range args {
		if err := c.expr(a, env); err != nil {
			return err
		}
		c.emit(gm.Instr{Op: gm.OpMkApp}, -1)
	}
	return nil
}

// name compiles a variable reference.
func (c *bodyCompiler) name(name string, env map[string]binding) error {
	if b, ok := env[name]; ok {
		if b.isLocal {
			c.emit(gm.Instr{Op: gm.OpPushLocal, A: int64(b.idx)}, 1)
		} else {
			c.emit(gm.Instr{Op: gm.OpPushArg, A: int64(b.idx)}, 1)
		}
		return nil
	}
	if idx, ok := c.scIdx[name]; ok {
		c.emit(gm.Instr{Op: gm.OpPushSuper, A: int64(idx)}, 1)
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
func (c *bodyCompiler) let(x Let, env map[string]binding) error {
	inner := make(map[string]binding, len(env)+len(x.Binds))
	for k, v := range env {
		inner[k] = v
	}
	slots := make([]int, len(x.Binds))
	for i, b := range x.Binds {
		slots[i] = c.nlocals
		c.nlocals++
		c.emit(gm.Instr{Op: gm.OpMkHole, A: int64(slots[i])}, 0)
		inner[b.Name] = binding{isLocal: true, idx: slots[i]}
	}
	for i, b := range x.Binds {
		if err := c.expr(b.Val, inner); err != nil {
			return err
		}
		c.emit(gm.Instr{Op: gm.OpKnot, A: int64(slots[i])}, -1)
	}
	return c.expr(x.Body, inner)
}

// ---- main-expression emission ----

// emitter lowers the lambda-free main expression to graph vertices,
// sharing leaf vertices per compile (the same discipline as the
// interpreted compiler) and building static knots for top-level lets.
type emitter struct {
	b      *graph.Builder
	scIdx  map[string]int
	combs  map[graph.Comb]*graph.Vertex
	prims  map[graph.Prim]*graph.Vertex
	supers map[int]*graph.Vertex
}

func (em *emitter) emit(e Expr, env map[string]*graph.Vertex) (*graph.Vertex, error) {
	switch x := e.(type) {
	case Var:
		return em.name(x.Name, env)
	case IntLit:
		return em.b.Int(x.Val), nil
	case BoolLit:
		return em.b.Bool(x.Val), nil
	case NilLit:
		return em.b.Nil(), nil
	case If:
		c, err := em.emit(x.Cond, env)
		if err != nil {
			return nil, err
		}
		t, err := em.emit(x.Then, env)
		if err != nil {
			return nil, err
		}
		els, err := em.emit(x.Else, env)
		if err != nil {
			return nil, err
		}
		return em.b.PrimApp(graph.PrimIf, c, t, els), nil
	case App:
		return em.app(x, env)
	case Let:
		inner := make(map[string]*graph.Vertex, len(env)+len(x.Binds))
		for k, v := range env {
			inner[k] = v
		}
		holes := make([]*graph.Vertex, len(x.Binds))
		for i, b := range x.Binds {
			holes[i] = em.b.Hole()
			inner[b.Name] = holes[i]
		}
		for i, b := range x.Binds {
			v, err := em.emit(b.Val, inner)
			if err != nil {
				return nil, err
			}
			em.b.Knot(holes[i], v)
		}
		return em.emit(x.Body, inner)
	case Lam:
		return nil, fmt.Errorf("gm: lambda survived lifting")
	default:
		return nil, fmt.Errorf("gm: unknown expression %T", e)
	}
}

func (em *emitter) app(e App, env map[string]*graph.Vertex) (*graph.Vertex, error) {
	head, args := spine(e)
	// Statically saturated strict primitives flatten here too, so the main
	// graph starts in the same normal shape compiled bodies build.
	if p, ok := saturatedPrim(head, len(args), env, em.scIdx); ok {
		ops := make([]*graph.Vertex, p.Arity())
		for i, a := range args[:len(ops)] {
			w, err := em.emit(a, env)
			if err != nil {
				return nil, err
			}
			ops[i] = w
		}
		return em.apps(em.b.PrimApp(p, ops...), args[len(ops):], env)
	}
	f, err := em.emit(head, env)
	if err != nil {
		return nil, err
	}
	return em.apps(f, args, env)
}

func (em *emitter) apps(f *graph.Vertex, args []Expr, env map[string]*graph.Vertex) (*graph.Vertex, error) {
	for _, a := range args {
		w, err := em.emit(a, env)
		if err != nil {
			return nil, err
		}
		f = em.b.App(f, w)
	}
	return f, nil
}

func (em *emitter) name(name string, env map[string]*graph.Vertex) (*graph.Vertex, error) {
	if v, ok := env[name]; ok {
		return v, nil
	}
	if idx, ok := em.scIdx[name]; ok {
		if v, ok := em.supers[idx]; ok {
			return v, nil
		}
		v := em.b.Super(idx)
		em.supers[idx] = v
		return v, nil
	}
	if k, val, ok := Builtin(name); ok {
		if k == graph.KindComb {
			c := graph.Comb(val)
			if v, ok := em.combs[c]; ok {
				return v, nil
			}
			v := em.b.Comb(c)
			em.combs[c] = v
			return v, nil
		}
		p := graph.Prim(val)
		if v, ok := em.prims[p]; ok {
			return v, nil
		}
		v := em.b.Prim(p)
		em.prims[p] = v
		return v, nil
	}
	return nil, fmt.Errorf("gm: unbound variable %q", name)
}
