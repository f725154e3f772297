// Package workload provides the executable scenarios of the paper's
// figures, generators for randomized mutating graphs, and the benchmark
// program corpus.
package workload

import (
	"fmt"
	"math/rand"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/task"
)

// Scenario is a hand-built graph state with in-flight tasks, matching one
// of the paper's worked figures.
type Scenario struct {
	Store *graph.Store
	Root  graph.VertexID
	// Tasks are the unexecuted reduction tasks of the scenario.
	Tasks []task.Task
	// Named gives stable names to the interesting vertices.
	Named map[string]graph.VertexID
	// ExpectClass maps task index → expected classification (Fig 3-2).
	ExpectClass map[int]analysis.Class
	// ExpectDeadlocked lists vertices that must be identified as
	// deadlocked (Fig 3-1).
	ExpectDeadlocked []graph.VertexID
}

// Fig31 builds the deadlocked computation of Figure 3-1: x = x + 1. The
// root vitally awaits x; x vitally awaits its own value; the only task in
// the system keeps an unrelated live region task-reachable.
func Fig31(parts int) *Scenario {
	s := graph.NewStore(graph.Config{Partitions: parts})
	b := graph.NewBuilder(s, 0)

	root := b.Hole() // the overall computation root
	x := b.Hole()    // the x = x+1 knot
	plus := b.Prim(graph.PrimAdd)
	one := b.Int(1)

	// x is a flattened (+ x 1) whose first operand is x itself, vitally
	// requested — exactly the figure: x ∈ args(x), marked requested.
	x.Lock()
	x.Kind = graph.KindPrimApp
	x.Val = int64(graph.PrimAdd)
	x.AddArg(x.ID, graph.ReqVital)
	x.AddArg(one.ID, graph.ReqNone)
	x.AddRequester(x.ID, graph.ReqVital)
	x.Unlock()
	_ = plus

	// root vitally depends on x and has requested it.
	root.Lock()
	root.Kind = graph.KindApply
	root.AddArg(x.ID, graph.ReqVital)
	root.Unlock()
	x.Lock()
	x.AddRequester(root.ID, graph.ReqVital)
	x.Unlock()

	// A live region with one queued task, so T is nonempty.
	live := b.App(b.Prim(graph.PrimNeg), b.Int(5))
	root.Lock()
	root.AddArg(live.ID, graph.ReqNone)
	root.Unlock()

	tasks := []task.Task{
		{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital},
		{Kind: task.Demand, Src: root.ID, Dst: live.ID, Req: graph.ReqVital},
	}
	return &Scenario{
		Store: s,
		Root:  root.ID,
		Tasks: tasks,
		Named: map[string]graph.VertexID{
			"root": root.ID, "x": x.ID, "live": live.ID,
		},
		ExpectDeadlocked: []graph.VertexID{x.ID},
	}
}

// Fig32 builds the task-type scenario of Figure 3-2 — the evaluation of
// "if p then d else c, where p = if true then (a+1) else (a+b+c)" — at the
// instant after the lower if has resolved its predicate and dereferenced
// its eagerly requested else branch. Four tasks exhibit the four types:
//
//	vital      <t1, a>: a is on the vital path (root →v p →v t1 →v a)
//	eager      <root, d>: d was eagerly requested by the top if
//	reserve    <t2, c>: t2 was dereferenced, but c is still reachable
//	           through the top if's unrequested else arc (R_r)
//	irrelevant <t2, b>: b is reachable only from the dereferenced t2 (GAR)
func Fig32(parts int) *Scenario {
	s := graph.NewStore(graph.Config{Partitions: parts})
	b := graph.NewBuilder(s, 0)

	a := b.Hole()  // shared leaf computation
	bb := b.Hole() // only in the dropped branch
	c := b.Hole()  // dropped branch AND top-level else
	d := b.Hole()  // top-level then, eagerly requested
	for _, h := range []*graph.Vertex{a, bb, c, d} {
		h.Lock()
		h.Kind = graph.KindApply
		h.Unlock()
	}
	one := b.Int(1)

	// t1 = (a + 1), vitally awaiting a.
	t1 := b.Hole()
	t1.Lock()
	t1.Kind = graph.KindPrimApp
	t1.Val = int64(graph.PrimAdd)
	t1.AddArg(a.ID, graph.ReqVital)
	t1.AddArg(one.ID, graph.ReqNone)
	t1.Unlock()
	a.Lock()
	a.AddRequester(t1.ID, graph.ReqVital)
	a.Unlock()

	// t2 = (a + b + c): already dereferenced from p, but its own edges
	// (eager requests it issued) are still live.
	t2 := b.Hole()
	t2.Lock()
	t2.Kind = graph.KindPrimApp
	t2.Val = int64(graph.PrimAdd)
	t2.AddArg(a.ID, graph.ReqNone)
	t2.AddArg(bb.ID, graph.ReqEager)
	t2.AddArg(c.ID, graph.ReqEager)
	t2.Unlock()
	bb.Lock()
	bb.AddRequester(t2.ID, graph.ReqEager)
	bb.Unlock()
	c.Lock()
	c.AddRequester(t2.ID, graph.ReqEager)
	c.Unlock()

	// p: the lower if, collapsed to an indirection to t1 after its
	// predicate resolved true; it vitally awaits t1.
	p := b.Hole()
	p.Lock()
	p.Kind = graph.KindInd
	p.AddArg(t1.ID, graph.ReqVital)
	p.Unlock()
	t1.Lock()
	t1.AddRequester(p.ID, graph.ReqVital)
	t1.Unlock()

	// root: the top if — vitally awaiting p, having eagerly requested d;
	// c is its unrequested else arc.
	root := b.Hole()
	root.Lock()
	root.Kind = graph.KindPrimApp
	root.Val = int64(graph.PrimIf)
	root.AddArg(p.ID, graph.ReqVital)
	root.AddArg(d.ID, graph.ReqEager)
	root.AddArg(c.ID, graph.ReqNone)
	root.Unlock()
	p.Lock()
	p.AddRequester(root.ID, graph.ReqVital)
	p.Unlock()
	d.Lock()
	d.AddRequester(root.ID, graph.ReqEager)
	d.Unlock()

	if err := b.Err(); err != nil {
		panic(fmt.Sprintf("workload: fig32 allocation: %v", err))
	}

	tasks := []task.Task{
		{Kind: task.Demand, Src: t1.ID, Dst: a.ID, Req: graph.ReqVital},   // vital
		{Kind: task.Demand, Src: root.ID, Dst: d.ID, Req: graph.ReqEager}, // eager
		{Kind: task.Demand, Src: t2.ID, Dst: c.ID, Req: graph.ReqEager},   // reserve
		{Kind: task.Demand, Src: t2.ID, Dst: bb.ID, Req: graph.ReqEager},  // irrelevant
	}
	return &Scenario{
		Store: s,
		Root:  root.ID,
		Tasks: tasks,
		Named: map[string]graph.VertexID{
			"root": root.ID, "p": p.ID, "t1": t1.ID, "t2": t2.ID,
			"a": a.ID, "b": bb.ID, "c": c.ID, "d": d.ID,
		},
		ExpectClass: map[int]analysis.Class{
			0: analysis.ClassVital,
			1: analysis.ClassEager,
			2: analysis.ClassReserve,
			3: analysis.ClassIrrelevant,
		},
	}
}

// RandomGraph wires n fresh vertices (allocated from store) into a random
// graph rooted at the returned vertex, with the given edge factor and a
// mix of request kinds.
func RandomGraph(rng *rand.Rand, store *graph.Store, n int, edgeFactor float64) (graph.VertexID, []*graph.Vertex, error) {
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		v, err := store.Alloc(i%store.Partitions(), graph.KindApply, 0)
		if err != nil {
			return graph.NilVertex, nil, err
		}
		vs[i] = v
	}
	edges := int(float64(n) * edgeFactor)
	for i := 0; i < edges; i++ {
		a := vs[rng.Intn(n)]
		b := vs[rng.Intn(n)]
		a.Lock()
		a.AddArg(b.ID, graph.ReqKind(rng.Intn(3)))
		a.Unlock()
	}
	// Make a decent fraction reachable: chain the root into random picks.
	root := vs[0]
	for i := 0; i < n/4; i++ {
		b := vs[rng.Intn(n)]
		root.Lock()
		root.AddArg(b.ID, graph.ReqVital)
		root.Unlock()
	}
	return root.ID, vs, nil
}

// Programs is the benchmark corpus: named source programs with their
// expected integer results.
var Programs = map[string]struct {
	Src  string
	Want int64
}{
	"fib": {
		Src:  "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 16",
		Want: 987,
	},
	"fac": {
		Src:  "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 12",
		Want: 479001600,
	},
	"sumsquares": {
		Src: `let map f xs = if isnil xs then [] else f (head xs) : map f (tail xs);
		          upto a b = if a > b then [] else a : upto (a + 1) b;
		          sum xs = if isnil xs then 0 else head xs + sum (tail xs)
		      in sum (map (\x. x * x) (upto 1 20))`,
		Want: 2870,
	},
	"primes": {
		Src: `let upfrom n = n : upfrom (n + 1);
		          take n xs = if n == 0 then [] else head xs : take (n - 1) (tail xs);
		          filter p xs = if isnil xs then []
		                        else if p (head xs) then head xs : filter p (tail xs)
		                        else filter p (tail xs);
		          sieve xs = head xs : sieve (filter (\x. x % head xs /= 0) (tail xs));
		          sum xs = if isnil xs then 0 else head xs + sum (tail xs)
		      in sum (take 10 (sieve (upfrom 2)))`,
		Want: 129, // 2+3+5+7+11+13+17+19+23+29
	},
	"tak": {
		Src: `let tak x y z = if y >= x then z
		                      else tak (tak (x-1) y z) (tak (y-1) z x) (tak (z-1) x y)
		      in tak 12 8 4`,
		Want: 5,
	},
	"parfib": {
		Src:  "let fib n = if n < 2 then n else par (fib (n-1)) (fib (n-2)) + fib (n-1) in fib 10",
		Want: 55,
	},
	"churn": {
		// Builds and discards list structure continuously: a GC stressor.
		Src: `let upto a b = if a > b then [] else a : upto (a + 1) b;
		          len xs = if isnil xs then 0 else 1 + len (tail xs);
		          go n acc = if n == 0 then acc else go (n - 1) (acc + len (upto 1 30))
		      in go 40 0`,
		Want: 1200,
	},
}
