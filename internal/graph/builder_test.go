package graph

import "testing"

func newBuildStore(t *testing.T) *Store {
	t.Helper()
	return NewStore(Config{Partitions: 2})
}

func TestBuilderLeaves(t *testing.T) {
	s := newBuildStore(t)
	b := NewBuilder(s, 0)

	i := b.Int(42)
	if i.Kind != KindInt || i.Val != 42 {
		t.Fatalf("Int: %+v", i)
	}
	bt := b.Bool(true)
	bf := b.Bool(false)
	if bt.Val != 1 || bf.Val != 0 || bt.Kind != KindBool {
		t.Fatal("Bool wrong")
	}
	n := b.Nil()
	if n.Kind != KindNil {
		t.Fatal("Nil wrong")
	}
	c := b.Comb(CombS)
	if c.Kind != KindComb || Comb(c.Val) != CombS {
		t.Fatal("Comb wrong")
	}
	p := b.Prim(PrimAdd)
	if p.Kind != KindPrim || Prim(p.Val) != PrimAdd {
		t.Fatal("Prim wrong")
	}
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
}

func TestBuilderApp(t *testing.T) {
	s := newBuildStore(t)
	b := NewBuilder(s, 0)
	f := b.Prim(PrimAdd)
	x := b.Int(1)
	y := b.Int(2)
	app := b.AppN(f, x, y)
	// ((+ 1) 2): outer apply's fun is the inner apply.
	if app.Kind != KindApply || len(app.Args()) != 2 || app.Args()[1] != y.ID {
		t.Fatalf("AppN: %+v", app)
	}
	inner := s.Vertex(app.Args()[0])
	if inner.Kind != KindApply || inner.Args()[0] != f.ID || inner.Args()[1] != x.ID {
		t.Fatalf("inner: %+v", inner)
	}
}

func TestBuilderListAndCons(t *testing.T) {
	s := newBuildStore(t)
	b := NewBuilder(s, 0)
	lst := b.List(b.Int(1), b.Int(2))
	if lst.Kind != KindCons {
		t.Fatalf("List head: %v", lst.Kind)
	}
	tail := s.Vertex(lst.Args()[1])
	if tail.Kind != KindCons {
		t.Fatalf("List tail: %v", tail.Kind)
	}
	end := s.Vertex(tail.Args()[1])
	if end.Kind != KindNil {
		t.Fatalf("List end: %v", end.Kind)
	}
	empty := b.List()
	if empty.Kind != KindNil {
		t.Fatal("empty list should be nil")
	}
}

func TestBuilderKnot(t *testing.T) {
	s := newBuildStore(t)
	b := NewBuilder(s, 0)
	h := b.Hole()
	target := b.Int(9)
	b.Knot(h, target)
	if h.Kind != KindInd || len(h.Args()) != 1 || h.Args()[0] != target.ID {
		t.Fatalf("Knot: %+v", h)
	}
	ind := b.Ind(target)
	if ind.Kind != KindInd || ind.Args()[0] != target.ID {
		t.Fatalf("Ind: %+v", ind)
	}
}

// TestBuilderExhaustion: once the store has no id left to deal, the builder
// records Alloc's error and still hands back a usable placeholder.
func TestBuilderExhaustion(t *testing.T) {
	s := NewStore(Config{Partitions: 1})
	b := NewBuilder(s, 0)
	b.Int(1)
	exhaustIDs(s)
	v := b.Int(2) // exhausted: throwaway vertex, error recorded
	if b.Err() == nil {
		t.Fatal("exhaustion not reported")
	}
	if v == nil {
		t.Fatal("builder must still return a usable placeholder")
	}
}

func TestBuilderRotatingPartition(t *testing.T) {
	s := newBuildStore(t)
	b := NewBuilder(s, -1)
	v := b.Int(3)
	if v.Part != 1 { // val 3 % 2 partitions
		t.Fatalf("rotating partition = %d", v.Part)
	}
}

func TestIsValueLocked(t *testing.T) {
	tests := []struct {
		kind Kind
		whnf bool
		want bool
	}{
		{KindInt, false, true},
		{KindCons, false, true},
		{KindComb, false, true},
		{KindApply, false, false},
		{KindApply, true, true},
		{KindPrimApp, true, true},
		{KindInd, false, false},
		{KindInd, true, true},
		{KindHole, false, false},
		{KindFree, false, false},
	}
	for _, tt := range tests {
		v := &Vertex{Kind: tt.kind}
		v.WHNF = tt.whnf
		v.Lock()
		got := v.IsValueLocked()
		v.Unlock()
		if got != tt.want {
			t.Errorf("IsValue(%v, whnf=%v) = %v, want %v", tt.kind, tt.whnf, got, tt.want)
		}
	}
}
