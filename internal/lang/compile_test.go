package lang

import (
	"fmt"
	"math/rand"
	"testing"

	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/reduce"
	"dgr/internal/sched"
)

// runOnEngine compiles src and reduces it on a deterministic machine,
// returning the value (ok=false when the computation produced none, e.g.
// deadlock) and any runtime errors.
func runOnEngine(t *testing.T, src string, pes int, seed int64, speculative bool) (reduce.Value, bool, []error) {
	t.Helper()
	store := graph.NewStore(graph.Config{Partitions: pes})
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs: pes, Mode: sched.Deterministic, Seed: seed,
		PartOf: store.PartitionOf, Counters: counters,
	})
	marker := core.NewMarker(store, mach, counters)
	mut := core.NewMutator(store, marker, mach, counters)
	eng := reduce.New(store, mach, mut, reduce.Config{SpeculativeIf: speculative, Counters: counters})
	mach.SetHandler(core.NewDispatcher(marker, eng))

	root, err := CompileString(store, src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	ch := eng.Demand(root.ID)
	if _, ok := mach.RunToQuiescence(20_000_000); !ok {
		t.Fatalf("%q: machine did not quiesce", src)
	}
	select {
	case v := <-ch:
		return v, true, eng.Errors()
	default:
		return reduce.Value{}, false, eng.Errors()
	}
}

// engineInt asserts src reduces to an integer.
func engineInt(t *testing.T, src string, want int64) {
	t.Helper()
	v, ok, errs := runOnEngine(t, src, 4, 1, false)
	if len(errs) != 0 {
		t.Fatalf("%q: runtime errors %v", src, errs)
	}
	if !ok {
		t.Fatalf("%q: no value", src)
	}
	if v.Kind != graph.KindInt || v.Int != want {
		t.Fatalf("%q = %v, want %d", src, v, want)
	}
}

func TestCompiledPrograms(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(\\x. x + 1) 41", 42},
		{"(\\x y. x * y) 6 7", 42},
		{"(\\f x. f (f x)) (\\x. x + 3) 0", 6},
		{"let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 10", 3628800},
		{"let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 12", 144},
		{"let twice f x = f (f x) in twice (\\x. x + 1) 5", 7},
		{"let compose f g x = f (g x) in compose neg neg 3", 3},
		{"head [5, bottom]", 5},
		{"let k x y = x in k 3 bottom", 3},
		{"let ones = 1 : ones in head (tail ones)", 1},
		{"fix (\\f. \\n. if n == 0 then 1 else n * f (n - 1)) 5", 120},
		{"seq (1 + 1) 9", 9},
		{"spec bottom 9", 9},
		{"par (1 + 1) 9", 9},
		{`let map f xs = if isnil xs then [] else f (head xs) : map f (tail xs);
		      sum xs = if isnil xs then 0 else head xs + sum (tail xs)
		  in sum (map (\x. x * x) [1,2,3,4])`, 30},
		{`let even n = if n == 0 then 1 else odd (n - 1);
		      odd n = if n == 0 then 0 else even (n - 1)
		  in even 10`, 1},
		{`let take n xs = if n == 0 then [] else head xs : take (n - 1) (tail xs);
		      nats = let from n = n : from (n + 1) in from 0;
		      sum xs = if isnil xs then 0 else head xs + sum (tail xs)
		  in sum (take 10 nats)`, 45},
		{"let x = 3; y = x + x in y * x", 18},
		// Inner lets capturing lambda parameters (desugared to
		// applications; self-recursive ones via fix).
		{"let f n = let a = n + 1 in a * a in f 4", 25},
		{"let f n = let a = n + 1; b = a + n in a * b in f 3", 28},
		{"let g n = let loop k = if k == 0 then 0 else n + loop (k - 1) in loop 3 in g 5", 15},
		{`let fib n = if n < 2 then n
		            else let a = fib (n - 1); b = fib (n - 2) in a + b
		  in fib 12`, 144},
	}
	for _, tt := range tests {
		t.Run(tt.src[:min(20, len(tt.src))], func(t *testing.T) {
			engineInt(t, tt.src, tt.want)
		})
	}
}

func TestCompiledProgramsSpeculative(t *testing.T) {
	// With speculative if, dead branches must not change results — even
	// when the dead branch is ⊥ (the speculation goes quiet, the chosen
	// branch wins).
	tests := []struct {
		src  string
		want int64
	}{
		{"if 1 < 2 then 10 else bottom", 10},
		{"if 2 < 1 then bottom else 20", 20},
	}
	for _, tt := range tests {
		for seed := int64(0); seed < 5; seed++ {
			v, ok, errs := runOnEngine(t, tt.src, 4, seed, true)
			if len(errs) != 0 {
				t.Fatalf("%q seed %d: errors %v", tt.src, seed, errs)
			}
			if !ok || v.Int != tt.want {
				t.Fatalf("%q seed %d = %v (ok=%v), want %d", tt.src, seed, v, ok, tt.want)
			}
		}
	}
}

// TestSpeculativeRecursionNeedsGC demonstrates §3.2 item 3 end-to-end:
// speculating the else branch of fac recurses on n-1 forever (fac(-1),
// fac(-2), ...), an unbounded irrelevant workload. Without the collector
// the machine never quiesces; with mark/restructure cycles expunging
// irrelevant tasks (Property 6), the computation converges to the right
// answer.
func TestSpeculativeRecursionNeedsGC(t *testing.T) {
	src := "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 8"

	store := graph.NewStore(graph.Config{Partitions: 4})
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs: 4, Mode: sched.Deterministic, Seed: 7,
		PartOf: store.PartitionOf, Counters: counters,
	})
	marker := core.NewMarker(store, mach, counters)
	mut := core.NewMutator(store, marker, mach, counters)
	eng := reduce.New(store, mach, mut, reduce.Config{SpeculativeIf: true, Counters: counters})
	mach.SetHandler(core.NewDispatcher(marker, eng))

	root, err := CompileString(store, src)
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewCollector(store, marker, mach, counters, core.CollectorConfig{})
	col.SetRoot(root.ID)

	ch := eng.Demand(root.ID)
	done := false
	for i := 0; i < 400 && !done; i++ {
		mach.RunUntil(func() bool { return len(ch) > 0 }, 3000)
		select {
		case v := <-ch:
			if v.Kind != graph.KindInt || v.Int != 40320 {
				t.Fatalf("fac 8 = %v, want 40320", v)
			}
			done = true
		default:
			col.RunCycle()
		}
	}
	if !done {
		t.Fatal("speculative fac did not converge even with GC")
	}
	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
	// After the value arrives, the remaining speculative work is all
	// irrelevant; GC cycles expunge it and the machine drains. Without
	// expunging it would spin forever (fac(-1), fac(-2), ...).
	for i := 0; i < 100 && mach.Inflight() > 0; i++ {
		mach.RunUntil(func() bool { return false }, 3000)
		col.RunCycle()
	}
	if mach.Inflight() != 0 {
		t.Fatalf("machine still busy after GC cycles: %d tasks", mach.Inflight())
	}
	if counters.Expunged.Load() == 0 {
		t.Fatal("expected irrelevant tasks to have been expunged")
	}
}

func TestCompiledDeadlock(t *testing.T) {
	v, ok, errs := runOnEngine(t, "let x = x + 1 in x", 2, 1, false)
	if ok {
		t.Fatalf("x=x+1 produced %v", v)
	}
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
}

func TestBracketAbstractionStructure(t *testing.T) {
	// η-optimization: \x. f x compiles to just f.
	c := NewCompiler(graph.NewStore(graph.Config{Partitions: 1}))
	tm, err := c.toTerm(mustParse(t, "\\x. neg x"))
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := tm.(tPrim); !ok || p.p != graph.PrimNeg {
		t.Fatalf("eta-reduction failed: %T %v", tm, tm)
	}
	// K-optimization: \x. 5 is K 5.
	term2, _ := c.toTerm(mustParse(t, "\\x. 5"))
	app, ok := term2.(*tApp)
	if !ok {
		t.Fatalf("\\x.5 = %T", term2)
	}
	if cb, ok := app.fun.(tComb); !ok || cb.c != graph.CombK {
		t.Fatal("\\x.5 should compile to K 5")
	}
	// Identity: \x. x is I.
	term3, _ := c.toTerm(mustParse(t, "\\x. x"))
	if cb, ok := term3.(tComb); !ok || cb.c != graph.CombI {
		t.Fatalf("\\x.x = %v", term3)
	}
}

func TestCompileErrors(t *testing.T) {
	store := graph.NewStore(graph.Config{Partitions: 1})
	if _, err := CompileString(store, "unboundvar"); err == nil {
		t.Fatal("unbound variable should fail compilation")
	}
	if _, err := CompileString(store, "1 +"); err == nil {
		t.Fatal("parse error should surface")
	}
}

// genProgram generates a random closed integer-valued program together
// with let-bound unary integer functions, by construction type-correct.
type progGen struct {
	rng  *rand.Rand
	vars []string // in-scope int variables
	funs []string // in-scope unary int→int functions
}

func (g *progGen) intExpr(depth int) string {
	if depth <= 0 {
		if len(g.vars) > 0 && g.rng.Intn(2) == 0 {
			return g.vars[g.rng.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.rng.Intn(20))
	}
	switch g.rng.Intn(7) {
	case 0, 1:
		ops := []string{"+", "-", "*"}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1),
			ops[g.rng.Intn(len(ops))], g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(if %s then %s else %s)",
			g.boolExpr(depth-1), g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		if len(g.funs) > 0 {
			return fmt.Sprintf("(%s %s)", g.funs[g.rng.Intn(len(g.funs))], g.intExpr(depth-1))
		}
		return g.intExpr(depth - 1)
	case 4:
		// immediately applied lambda
		v := fmt.Sprintf("v%d", len(g.vars))
		g.vars = append(g.vars, v)
		body := g.intExpr(depth - 1)
		g.vars = g.vars[:len(g.vars)-1]
		return fmt.Sprintf("((\\%s. %s) %s)", v, body, g.intExpr(depth-1))
	case 5:
		return fmt.Sprintf("(neg %s)", g.intExpr(depth-1))
	default:
		return g.intExpr(depth - 1)
	}
}

func (g *progGen) boolExpr(depth int) string {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return "true"
		}
		return "false"
	}
	switch g.rng.Intn(4) {
	case 0:
		cmps := []string{"==", "/=", "<", "<=", ">", ">="}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1),
			cmps[g.rng.Intn(len(cmps))], g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(not %s)", g.boolExpr(depth-1))
	}
}

func (g *progGen) program() string {
	// A couple of simple unary functions, then an int expression.
	g.funs = []string{"half", "sq"}
	body := g.intExpr(3 + g.rng.Intn(2))
	return fmt.Sprintf("let half x = x / 2; sq x = x * x in %s", body)
}

// TestDifferentialRandomPrograms cross-validates the combinator compiler +
// distributed reduction engine against the reference interpreter on random
// programs.
func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		src := g.program()

		want, err := NewInterp(2_000_000).EvalString(src)
		if err != nil {
			t.Fatalf("seed %d: interpreter failed on %q: %v", seed, src, err)
		}
		wi, ok := want.(IInt)
		if !ok {
			t.Fatalf("seed %d: interpreter value %T", seed, want)
		}

		for _, spec := range []bool{false, true} {
			v, got, errs := runOnEngine(t, src, 1+int(seed%4), seed, spec)
			if len(errs) != 0 {
				t.Fatalf("seed %d spec=%v: engine errors %v on %q", seed, spec, errs, src)
			}
			if !got {
				t.Fatalf("seed %d spec=%v: engine produced no value on %q", seed, spec, src)
			}
			if v.Kind != graph.KindInt || v.Int != int64(wi) {
				t.Fatalf("seed %d spec=%v: engine=%v interp=%d on %q", seed, spec, v, wi, src)
			}
		}
	}
}

func TestInnerLetMutualRecursionRejected(t *testing.T) {
	store := graph.NewStore(graph.Config{Partitions: 1})
	// even captures the enclosing parameter n AND references the later
	// binding odd: not expressible by either compilation strategy.
	src := `let f n = let even k = if k == 0 then n else odd (k - 1);
	                      odd k = even (k - 1)
	                  in even 4
	        in f 9`
	if _, err := CompileString(store, src); err == nil {
		t.Fatal("mutual recursion in a parameter-capturing let should be rejected")
	}
	// Without capture, mutual recursion is fine (graph knots).
	ok := `let even k = if k == 0 then true else odd (k - 1);
	           odd k = if k == 0 then false else even (k - 1)
	       in even 4`
	if _, err := CompileString(store, ok); err != nil {
		t.Fatalf("parameter-free mutual recursion should compile: %v", err)
	}
}

func TestInnerLetDifferential(t *testing.T) {
	// The desugared let path must agree with the interpreter.
	srcs := []string{
		"let f n = let a = n * 2 in a + a in f 7",
		"let f x y = let s = x + y; d = x - y in s * d in f 9 4",
		"(\\n. let sq = n * n in sq + 1) 6",
	}
	for _, src := range srcs {
		want, err := NewInterp(100000).EvalString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		v, ok, errs := runOnEngine(t, src, 2, 1, false)
		if len(errs) != 0 || !ok {
			t.Fatalf("%q: ok=%v errs=%v", src, ok, errs)
		}
		if v.Int != int64(want.(IInt)) {
			t.Fatalf("%q: engine=%d interp=%d", src, v.Int, int64(want.(IInt)))
		}
	}
}
