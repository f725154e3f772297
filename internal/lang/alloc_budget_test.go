package lang

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/workload"
)

// passAllocs measures, over the workload corpus, the heap allocations per
// program of each front-end pass and of the two whole pipelines. A pipeline
// that builds a graph runs on a fresh store; the store's own allocations,
// measured alone, are taken off.
func passAllocs(t *testing.T) (map[string]float64, []string) {
	t.Helper()
	names := corpusNames()
	const runs = 20
	storeOnly := testing.AllocsPerRun(runs, func() {
		_ = graph.NewStore(graph.Config{Partitions: 4, Serial: true})
		_ = gm.NewProgram()
	})
	sum := map[string]float64{}
	for _, name := range names {
		src := workload.Programs[name].Src
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc, err := Lift(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum["parse"] += testing.AllocsPerRun(runs, func() { _, _ = Parse(src) })
		sum["lift"] += testing.AllocsPerRun(runs, func() { _, _ = Lift(e) })
		sum["strict"] += testing.AllocsPerRun(runs, func() { _ = strictMasks(sc) })
		sum["gmbody"] += testing.AllocsPerRun(runs, func() {
			c := &bodyCompiler{index: sc.Index}
			for _, s := range sc.Supers {
				if _, err := c.compileSuper(s); err != nil {
					t.Fatal(err)
				}
			}
		})
		sum["combcompile"] += testing.AllocsPerRun(runs, func() {
			store := graph.NewStore(graph.Config{Partitions: 4, Serial: true})
			_ = gm.NewProgram()
			if _, err := NewCompiler(store).Compile(e); err != nil {
				t.Fatal(err)
			}
		}) - storeOnly
		sum["interp"] += testing.AllocsPerRun(runs, func() {
			store := graph.NewStore(graph.Config{Partitions: 4, Serial: true})
			_ = gm.NewProgram()
			if _, err := CompileString(store, src); err != nil {
				t.Fatal(err)
			}
		}) - storeOnly
		sum["compiled"] += testing.AllocsPerRun(runs, func() {
			store := graph.NewStore(graph.Config{Partitions: 4, Serial: true})
			prog := gm.NewProgram()
			if _, err := CompileSupers(store, prog, src); err != nil {
				t.Fatal(err)
			}
		}) - storeOnly
	}
	per := map[string]float64{}
	for k, v := range sum {
		per[k] = v / float64(len(names))
	}
	return per, []string{"parse", "lift", "strict", "gmbody", "combcompile", "interp", "compiled"}
}

// TestCompileAllocBudget holds the front end to allocations in proportion
// to what it outputs (DESIGN.md §8, "The front end allocates per
// compile"): it bounds the mean allocations per corpus program of the
// whole pipeline on each back end and of the parser, the lifter, the
// strictness analysis and the gm body compiler, and logs every pass's
// share. The bounds are the measured means (interp 27.9, compiled 49.6,
// parse 9.0, lift 15.9, strict 6.0, gmbody 16.3) with a little room; the
// parser's is looser, at 20. Since the lifter sizes its slabs (liftTally)
// interp reads 24.7, compiled 42.9 and lift 11.3.
func TestCompileAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc census in -short")
	}
	per, order := passAllocs(t)
	var parts []string
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s=%.1f", k, per[k]))
	}
	t.Logf("census: front-end allocations per program %s", strings.Join(parts, " "))
	budget := map[string]float64{"interp": 30, "compiled": 53, "parse": 20, "lift": 17, "strict": 7, "gmbody": 18}
	for _, k := range order {
		if max, ok := budget[k]; ok && per[k] > max {
			t.Errorf("%s makes %.1f allocations per program, budget %.0f", k, per[k], max)
		}
	}
}

// evalShapes are the benchmark's six eval programs, salted 17.
var evalShapes = []string{
	`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15 + 17`,
	`let tak x y z = if y >= x then z
                else tak (tak (x-1) y z) (tak (y-1) z x) (tak (z-1) x y)
in tak 10 6 3 + 17`,
	goldenSievePrelude + `sum (take 18 (sieve (upfrom 2))) + 17`,
	goldenListPrelude + `sum (map (\x. x * x + 17) (upto 1 60))`,
	goldenListPrelude + `let go n acc = if n == 0 then acc else go (n - 1) (acc + len (upto 1 30))
in go 40 17`,
	goldenListPrelude + `let xs = upto 17 (17 + 299) in sum xs + len xs + sum xs`,
}

// TestLiftByteBudget bounds the bytes a lift allocates, per program over
// the benchmark's six eval programs: the lifter sizes its supercombinator
// table, its scope and the slabs it rebuilds Apps, Ifs and Vars in from two
// walks over its input (liftTally), where slabs of 4, 8, 16 and 32 nodes
// read 2 890 B. It reads 2 058 B; the bound is what a lift allocated when
// the AST boxed each node on its own, 2 405 B.
func TestLiftByteBudget(t *testing.T) {
	const runs = 50
	var total uint64
	for _, src := range evalShapes {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := Lift(e); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		total += (after.TotalAlloc - before.TotalAlloc) / runs
	}
	per := total / uint64(len(evalShapes))
	t.Logf("census: lift bytes per eval program = %d", per)
	if per >= 2405 {
		t.Errorf("a lift allocates %d B per eval program, want < 2405 B", per)
	}
}
