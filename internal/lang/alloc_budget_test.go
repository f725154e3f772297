package lang

import (
	"fmt"
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
// parser's is looser, at 20.
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
