package graph

// Builder constructs combinator graphs for the reduction engine: apply
// spines, literals, combinator and primitive leaves. It is used by the
// language compiler and by tests; construction happens before (or outside)
// marking, so edges are wired directly with ReqNone.
type Builder struct {
	store *Store
	part  int
	err   error
}

// NewBuilder returns a builder allocating on the given partition (vertices
// rotate across partitions when part is negative).
func NewBuilder(store *Store, part int) *Builder {
	return &Builder{store: store, part: part}
}

// Err returns the first allocation error encountered (nil if none).
func (b *Builder) Err() error { return b.err }

func (b *Builder) alloc(kind Kind, val int64) *Vertex {
	part := b.part
	if part < 0 {
		part = int(val) % b.store.Partitions()
		if part < 0 {
			part = 0
		}
	}
	v, err := b.store.Alloc(part, kind, val)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		// Return a throwaway unregistered vertex so callers can proceed;
		// Err() surfaces the failure.
		return &Vertex{Kind: kind, Val: val}
	}
	return v
}

// Int builds an integer literal vertex.
func (b *Builder) Int(n int64) *Vertex { return b.alloc(KindInt, n) }

// Bool builds a boolean literal vertex.
func (b *Builder) Bool(v bool) *Vertex {
	var n int64
	if v {
		n = 1
	}
	return b.alloc(KindBool, n)
}

// Nil builds the empty-list vertex.
func (b *Builder) Nil() *Vertex { return b.alloc(KindNil, 0) }

// Comb builds a combinator leaf.
func (b *Builder) Comb(c Comb) *Vertex { return b.alloc(KindComb, int64(c)) }

// Prim builds a primitive-operator leaf.
func (b *Builder) Prim(p Prim) *Vertex { return b.alloc(KindPrim, int64(p)) }

// Super builds a compiled-supercombinator leaf whose Val indexes the
// machine's gm.Program table.
func (b *Builder) Super(idx int) *Vertex { return b.alloc(KindSuper, int64(idx)) }

// Hole builds a placeholder vertex (letrec knots).
func (b *Builder) Hole() *Vertex { return b.alloc(KindHole, 0) }

// App builds an application vertex fun·arg.
func (b *Builder) App(fun, arg *Vertex) *Vertex {
	v := b.alloc(KindApply, 0)
	v.Lock()
	v.AddArg(fun.ID, ReqNone)
	v.AddArg(arg.ID, ReqNone)
	v.Unlock()
	return v
}

// AppN left-folds applications: AppN(f, a, b, c) = ((f·a)·b)·c.
func (b *Builder) AppN(fun *Vertex, args ...*Vertex) *Vertex {
	v := fun
	for _, a := range args {
		v = b.App(v, a)
	}
	return v
}

// PrimApp builds a saturated (flattened) primitive application.
func (b *Builder) PrimApp(p Prim, args ...*Vertex) *Vertex {
	v := b.alloc(KindPrimApp, int64(p))
	v.Lock()
	for _, a := range args {
		v.AddArg(a.ID, ReqNone)
	}
	v.Unlock()
	return v
}

// Cons builds a pair cell (already in WHNF).
func (b *Builder) Cons(h, t *Vertex) *Vertex {
	v := b.alloc(KindCons, 0)
	v.Lock()
	v.AddArg(h.ID, ReqNone)
	v.AddArg(t.ID, ReqNone)
	v.Unlock()
	return v
}

// Ind builds an indirection to target.
func (b *Builder) Ind(target *Vertex) *Vertex {
	v := b.alloc(KindInd, 0)
	v.Lock()
	v.AddArg(target.ID, ReqNone)
	v.Unlock()
	return v
}

// Knot back-patches a Hole vertex to become an indirection to target,
// closing a letrec cycle.
func (b *Builder) Knot(hole, target *Vertex) {
	hole.Lock()
	hole.Kind = KindInd
	hole.SetArgs(target.ID)
	hole.Unlock()
}

// List builds a cons-list of the given elements.
func (b *Builder) List(elems ...*Vertex) *Vertex {
	v := b.Nil()
	for i := len(elems) - 1; i >= 0; i-- {
		v = b.Cons(elems[i], v)
	}
	return v
}
