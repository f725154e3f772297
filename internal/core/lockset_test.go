package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"dgr/internal/graph"
)

// vertices allocates n vertices and returns them in ascending ID order.
func (r *rig) vertices(n int) []*graph.Vertex {
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		vs[i] = r.vertex(graph.KindApply)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	return vs
}

// assertLockOrder fails unless the set holds exactly want, in that order.
func assertLockOrder(t *testing.T, s *lockSet, want []*graph.Vertex) {
	t.Helper()
	got := s.members()
	if len(got) != len(want) {
		t.Fatalf("lock set has %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("member %d is v%d, want v%d", i, got[i].ID, want[i].ID)
		}
	}
}

// assertHeldThenReleased checks, as far as a sync.Mutex lets an outsider see,
// that every vertex in vs is locked now and free after unlock: a goroutine
// per vertex blocks in Lock, none gets through while the set is held, all get
// through once it is released (the test hangs otherwise). Unlocking a member
// twice is a runtime fatal error, so "exactly once" is covered too.
func assertHeldThenReleased(t *testing.T, vs []*graph.Vertex, unlock func()) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	through := 0
	for _, v := range vs {
		wg.Add(1)
		go func(v *graph.Vertex) {
			defer wg.Done()
			v.Lock()
			mu.Lock()
			through++
			mu.Unlock()
			v.Unlock()
		}(v)
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	mu.Lock()
	early := through
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d of %d vertices were lockable while the set was held", early, len(vs))
	}
	unlock()
	wg.Wait()
}

func TestLockSetOrder(t *testing.T) {
	r := newRig(t, 1, 1, false)
	vs := r.vertices(4)
	a, b, c, d := vs[0], vs[1], vs[2], vs[3]

	for _, args := range [][]*graph.Vertex{
		{a, b, c, d},
		{d, c, b, a},
		{c, a, d, b},
		{b, nil, d, b, a, nil, c, a, d}, // nils skipped, duplicates taken once
	} {
		var s lockSet
		lockVertices(&s, args...)
		assertLockOrder(t, &s, vs)
		assertHeldThenReleased(t, vs, s.unlock)
	}

	var empty lockSet
	empty.add(nil)
	empty.lock()
	empty.unlock()
	assertLockOrder(t, &empty, nil)
}

func TestLockSetPastInlineCapacity(t *testing.T) {
	r := newRig(t, 1, 1, false)
	for _, n := range []int{lockSetInline, lockSetInline + 1, 2*lockSetInline + 3} {
		vs := r.vertices(n)
		// Descending with every vertex repeated: the worst insertion order.
		var args []*graph.Vertex
		for i := n - 1; i >= 0; i-- {
			args = append(args, vs[i], vs[i])
		}
		var s lockSet
		lockVertices(&s, args...)
		assertLockOrder(t, &s, vs)
		for _, v := range vs {
			if !slices.Contains(s.members(), v) {
				t.Fatalf("n=%d: v%d missed", n, v.ID)
			}
		}
		if slices.ContainsFunc(s.members(), func(v *graph.Vertex) bool { return v.ID == graph.NilVertex }) {
			t.Fatalf("n=%d: nil vertex hit", n)
		}
		assertHeldThenReleased(t, vs, s.unlock)
	}
}

// serialVertices allocates n vertices of a serial store (a seeded
// machine's), in ascending ID order.
func serialVertices(tb testing.TB, n int) []*graph.Vertex {
	tb.Helper()
	store := graph.NewStore(graph.Config{Partitions: 1, Serial: true})
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		v, err := store.Alloc(0, graph.KindApply, 0)
		if err != nil {
			tb.Fatal(err)
		}
		vs[i] = v
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	return vs
}

// TestLockSetSerial: on serial vertices (a seeded machine's) the helpers
// leave the set empty and take no vertex's mutex — there is no set to build,
// sort, spill or walk — inline-sized or not.
func TestLockSetSerial(t *testing.T) {
	for _, n := range []int{4, lockSetInline + 3} {
		vs := serialVertices(t, n)
		var s lockSet
		lockVertices(&s, vs...)
		assertLockOrder(t, &s, nil)
		lockSpliceSet(&s, vs[0], vs[1:n/2], vs[n/2:])
		assertLockOrder(t, &s, nil)
		for _, v := range vs {
			if !v.Mutex.TryLock() {
				t.Fatalf("n=%d: v%d's mutex is held", n, v.ID)
			}
			v.Mutex.Unlock()
		}
		s.unlock()
	}
}

// TestLockSetNoInversion locks overlapping sets from two goroutines in
// opposite argument order. Were the set to lock in argument order the two
// would deadlock within a few rounds; run under -race in CI.
func TestLockSetNoInversion(t *testing.T) {
	r := newRig(t, 1, 1, false)
	vs := r.vertices(6)
	fwd := []*graph.Vertex{vs[0], vs[1], vs[2], vs[3], vs[4]}
	rev := []*graph.Vertex{vs[5], vs[4], vs[3], vs[2], vs[1]}
	shared := 0
	var wg sync.WaitGroup
	for _, set := range [][]*graph.Vertex{fwd, rev} {
		wg.Add(1)
		go func(set []*graph.Vertex) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				var s lockSet
				lockVertices(&s, set...)
				shared++ // guarded by the overlap; -race checks it
				s.unlock()
			}
		}(set)
	}
	wg.Wait()
	if shared != 2000 {
		t.Fatalf("shared = %d, want 2000", shared)
	}
}

// rewriteShape builds the vertices of one combinator contraction: the redex,
// nFresh fresh applies and nOps existing operands, plus the splice that
// wires every fresh vertex and the redex the way a contraction does.
func rewriteShape(r *rig, nFresh, nOps int) (v *graph.Vertex, fresh, ops []*graph.Vertex, splice func()) {
	v = r.vertex(graph.KindApply)
	fresh = r.vertices(nFresh)
	ops = r.vertices(nOps)
	splice = func() {
		last := ops[nOps-1].ID
		for i, n := range fresh {
			n.SetArgs(ops[i].ID, last)
		}
		v.SetArgs(fresh[0].ID, ops[nOps-2].ID)
	}
	return v, fresh, ops, splice
}

// TestPrimitivesDoNotAllocate: with the vertices' own slices at size, a
// cooperating primitive outside a marking cycle makes no heap allocation — no
// lock slice, no sort closure, no map — on a locked store and a serial one.
// A splice wider than lockSetInline spills a parallel machine's lock set to
// the heap; a seeded machine builds no set, so it allocates nothing either.
func TestPrimitivesDoNotAllocate(t *testing.T) {
	for _, serial := range []bool{false, true} {
		r := newRigSerial(t, 1, serial)
		x, y := r.vertex(graph.KindApply), r.vertex(graph.KindApply)
		r.edge(x, y, graph.ReqNone)
		v, c := r.vertex(graph.KindApply), r.vertex(graph.KindInt)
		r.edge(v, c, graph.ReqNone)
		leaf := r.vertex(graph.KindPrimApp)
		rv, fresh, ops, splice := rewriteShape(r, 3, 4) // S': 3 fresh + 4 existing
		wv, wfresh, wops, wsplice := rewriteShape(r, 6, 8)

		for _, tc := range []struct {
			name       string
			fn         func()
			serialOnly bool
		}{
			{"SetRequestKind+AddRequesterCoop+CompleteRequest", func() {
				r.registerRequest(x, y, graph.ReqVital)
				r.mut.CompleteRequest(x, y)
			}, false},
			{"AddRequesterCoop", func() {
				r.mut.AddRequesterCoop(y, x, graph.ReqVital)
				r.mut.CompleteRequest(x, y)
			}, false},
			{"SetRequestKind", func() { r.mut.SetRequestKind(x, y, graph.ReqEager) }, false},
			{"CollapseToInd", func() { r.mut.CollapseToInd(v, c) }, false},
			{"RelabelLeaf", func() { r.mut.RelabelLeaf(leaf, graph.KindInt, 7) }, false},
			{"Rewrite/Sprime", func() { r.mut.Rewrite(rv, fresh, ops, splice) }, false},
			{"Rewrite/wide", func() { r.mut.Rewrite(wv, wfresh, wops, wsplice) }, true},
		} {
			if tc.serialOnly && !serial {
				continue
			}
			tc.fn() // first call grows the vertices' own slices
			if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
				t.Errorf("serial=%v %s: %v allocations per call, want 0", serial, tc.name, n)
			}
		}
		if n := r.mach.Inflight(); n != 0 {
			t.Errorf("serial=%v: %d tasks spawned outside a marking cycle", serial, n)
		}
	}
}

// TestRewriteLocks: inside a splice wider than lockSetInline, a locked
// store's Rewrite holds every member's lock (the redex, each fresh vertex,
// each operand) and releases them all on return; a serial store's holds none.
func TestRewriteLocks(t *testing.T) {
	for _, serial := range []bool{false, true} {
		r := newRigSerial(t, 1, serial)
		v, fresh, ops, splice := rewriteShape(r, 6, 8)
		members := append(append([]*graph.Vertex{v}, fresh...), ops...)
		free := func(when string, want bool) {
			for _, m := range members {
				got := m.Mutex.TryLock()
				if got {
					m.Mutex.Unlock()
				}
				if got != want {
					t.Errorf("serial=%v %s: v%d's mutex free = %v, want %v", serial, when, m.ID, got, want)
				}
			}
		}
		r.mut.Rewrite(v, fresh, ops, func() {
			free("inside fn", serial)
			splice()
		})
		free("after Rewrite", true)
	}
}

// TestRewriteCoopBothModes: a Rewrite under an active M_R cycle splices a
// fresh vertex g below v and has g reference an unreachable existing operand.
// From a marked v, g is marked at once (expand-node) and the operand becomes
// an extra root (the cover pass from g); from a transient v, g is a new
// child counted against v's mt-cnt, and the operand is traced through g. In
// every case and on both stores the cycle ends with all three marked.
func TestRewriteCoopBothModes(t *testing.T) {
	for _, serial := range []bool{false, true} {
		for _, want := range []graph.MarkState{graph.Marked, graph.Transient} {
			r := newRigSerial(t, 4, serial)
			r.taskPerArc()
			root, v := r.vertex(graph.KindApply), r.vertex(graph.KindApply)
			r.edge(root, v, graph.ReqVital)
			below := root
			if want == graph.Transient {
				below = v
			}
			for i := 0; i < 8; i++ {
				nxt := r.vertex(graph.KindApply)
				r.edge(below, nxt, graph.ReqVital)
				below = nxt
			}
			op := r.vertex(graph.KindInt)
			r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
			for r.stateOf(v, graph.CtxR) != want {
				if r.marker.Done(graph.CtxR) || !r.mach.Step() {
					t.Fatalf("serial=%v: v never became %v", serial, want)
				}
			}
			g, err := r.mut.Alloc(0, graph.KindApply, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.mut.Rewrite(v, []*graph.Vertex{g}, []*graph.Vertex{op}, func() {
				g.SetArgs(op.ID)
				v.AddArg(g.ID, graph.ReqNone)
			})
			wantCoop := int64(1) // transient v: the mark spawned on g
			if want == graph.Marked {
				r.assertMarked(graph.CtxR, g)
				wantCoop = 2 // g marked, op made a root
			} else {
				r.assertUnmarked(graph.CtxR, g, op)
			}
			if n := r.counters.CoopMarks.Load(); n != wantCoop {
				t.Fatalf("serial=%v %v: %d coop marks, want %d", serial, want, n, wantCoop)
			}
			r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxR) }, 100000)
			if !r.marker.Done(graph.CtxR) {
				t.Fatalf("serial=%v %v: marking did not terminate", serial, want)
			}
			if n := r.marker.UnderflowCount(graph.CtxR); n != 0 {
				t.Fatalf("serial=%v %v: %d mt-cnt underflows", serial, want, n)
			}
			r.assertMarked(graph.CtxR, root, v, g, op)
			r.assertNoViolations(graph.CtxR)
		}
	}
}

// BenchmarkLockSet: a parallel machine's set (locked, kept in ID order) and
// a seeded machine's (serial vertices: left empty).
func BenchmarkLockSet(b *testing.B) {
	for _, serial := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 8} {
			b.Run(fmt.Sprintf("serial=%v/%d", serial, n), func(b *testing.B) {
				var vs []*graph.Vertex
				if serial {
					vs = serialVertices(b, n)
				} else {
					vs = newRig(b, 1, 1, false).vertices(n)
				}
				// Descending arguments: every insertion shifts the whole set.
				slices.Reverse(vs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var s lockSet
					lockVertices(&s, vs...)
					s.unlock()
				}
			})
		}
	}
}

func BenchmarkRewrite(b *testing.B) {
	for _, shape := range []struct {
		name        string
		fresh, nOps int
	}{{"B", 1, 3}, {"S", 2, 3}, {"Sprime", 3, 4}} {
		b.Run(shape.name, func(b *testing.B) {
			r := newRig(b, 1, 1, false)
			v, fresh, ops, splice := rewriteShape(r, shape.fresh, shape.nOps)
			r.mut.Rewrite(v, fresh, ops, splice) // grows the vertices' own slices
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.mut.Rewrite(v, fresh, ops, splice)
			}
		})
	}
}
