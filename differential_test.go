package dgr_test

// Cross-engine differential harness: the proof obligation of the compiled
// supercombinator backend. Every corpus program — the lang digest corpus,
// the example programs, the benchmark corpus, and seeded randomly
// generated well-typed terms — runs through both reduction engines
// (interpreted Turner combinators and compiled supercombinators) across
// the four scheduling configurations (det, parallel, fabric, fabdrop).
// The tree-walking lang.Interp is the shared reference oracle:
//
//   - a reference integer/bool/nil value  → both engines produce it
//   - a reference cons/function value     → both engines produce a value
//     of the corresponding shape (exact graph kinds differ by design:
//     the interpreter leaves combinator spines, the compiled engine
//     supercombinator leaves)
//   - reference bottom (self-dependency)  → both engines report
//     ErrDeadlock
//   - a reference runtime error           → both engines report ErrStuck
//
// Every run must additionally leave the invariant checker clean, and
// deterministic value runs must satisfy the internal/analysis reachability
// invariants on the final quiescent graph, engine-independently.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"dgr"
	"dgr/internal/analysis"
	"dgr/internal/check"
	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/lang"
	"dgr/internal/workload"
)

// diffMode is one scheduling configuration of the differential matrix,
// mirroring the dgr-check sweep configs.
var diffModes = []string{"det", "parallel", "fabric", "fabdrop"}

func diffOptions(mode, engine string, seed int64) dgr.Options {
	o := dgr.Options{
		PEs:        4,
		Seed:       seed,
		Engine:     engine,
		GCInterval: 300,
		MTEvery:    2,
		MaxSteps:   8_000_000,
		CheckEvery: 256,
	}
	adversarial := &check.Stress{Adversarial: true}
	switch mode {
	case "det":
		o.Stress = adversarial
	case "parallel":
		o.Parallel = true
	case "fabric":
		o.Stress = adversarial
		o.Fabric = &fabric.Params{}
	case "fabdrop":
		o.Stress = adversarial
		o.Fabric = &fabric.Params{DropRate: 0.3}
	}
	return o
}

// refOutcome classifies a program by the reference interpreter.
type refOutcome int

const (
	refInt refOutcome = iota
	refBool
	refNil
	refCons
	refFunc
	refDeadlock
	refStuck   // a runtime error: type error, division by zero
	refUnknown // unparsable or out of fuel: excluded from the matrix
)

type diffCase struct {
	name    string
	src     string
	outcome refOutcome
	// wantInt / wantBool hold the reference value for refInt / refBool.
	wantInt  int64
	wantBool bool
	// errorFree: no part of the program can raise a runtime error, needed or
	// not, so a successful evaluation must leave RuntimeErrors empty.
	errorFree bool
}

// classify runs the reference interpreter on src.
func classify(name, src string) diffCase {
	c := diffCase{name: name, src: src}
	e, err := lang.Parse(src)
	if err != nil {
		c.outcome = refUnknown
		return c
	}
	v, err := lang.NewInterp(2_000_000).Eval(e)
	switch {
	case errors.Is(err, lang.ErrBottom):
		c.outcome = refDeadlock
	case errors.Is(err, lang.ErrFuel):
		c.outcome = refUnknown
	case err != nil:
		c.outcome = refStuck
	default:
		switch val := v.(type) {
		case lang.IInt:
			c.outcome, c.wantInt = refInt, int64(val)
		case lang.IBool:
			c.outcome, c.wantBool = refBool, bool(val)
		case lang.INil:
			c.outcome = refNil
		case lang.ICons:
			c.outcome = refCons
		default:
			c.outcome = refFunc
		}
	}
	return c
}

// digestCorpus loads the programs of the lang digest golden file.
func digestCorpus(t *testing.T) []diffCase {
	t.Helper()
	f, err := os.Open("internal/lang/testdata/digest.golden")
	if err != nil {
		t.Fatalf("digest corpus: %v", err)
	}
	defer f.Close()
	var cases []diffCase
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "  ", 2)
		if len(parts) != 2 {
			continue
		}
		src := strings.TrimSpace(parts[1])
		cases = append(cases, classify(fmt.Sprintf("digest/%s", parts[0][:8]), src))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("digest corpus: %v", err)
	}
	return cases
}

// exampleCorpus holds the example programs (example_test.go), with the
// quickstart fib scaled down so the full matrix stays fast.
var exampleCorpus = []struct{ name, src string }{
	{"examples/arith", "2 + 3 * 4"},
	{"examples/fib", "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 12"},
	{"examples/fac", "let fac n = if n == 0 then 1 else n * fac (n-1) in fac 6"},
	{"examples/selfloop", "let x = x + 1 in x"},
	{"examples/mutual-deadlock", "let a = b + 1; b = a + 1 in a"},
	{"examples/seq", "seq (1 + 2) (3 + 4)"},
	{"examples/knot-deadlock-under-call", "let f = \\a. a + 1 in let x = f x in x"},
	{"examples/shared-knot", "let y = 6 * 7 in y + y"},
}

// diffCorpus assembles the full differential corpus.
func diffCorpus(t *testing.T) []diffCase {
	var cases []diffCase
	cases = append(cases, digestCorpus(t)...)
	for _, p := range exampleCorpus {
		cases = append(cases, classify(p.name, p.src))
	}
	n := 12
	if testing.Short() {
		n = 4
	}
	g := lang.NewGen(20260808, lang.GenConfig{})
	for i := 0; i < n; i++ {
		_, src, want := g.Program()
		cases = append(cases, diffCase{
			name:    fmt.Sprintf("gen/%d", i),
			src:     src,
			outcome: refInt,
			wantInt: want,
			// The generator divides by nonzero literals only.
			errorFree: true,
		})
	}
	return cases
}

// diffRun evaluates one (program, mode, engine) cell and asserts the
// checker stayed clean. It returns the value and evaluation error.
func diffRun(t *testing.T, c diffCase, mode, engine string) (dgr.Value, error) {
	t.Helper()
	m := dgr.New(diffOptions(mode, engine, 1))
	defer m.Close()
	v, err := m.Eval(c.src)
	if cerr := m.CheckErr(); cerr != nil {
		t.Errorf("%s [%s/%s]: invariant violations: %v", c.name, mode, engine, cerr)
	}
	if errs := m.RuntimeErrors(); c.errorFree && err == nil && len(errs) != 0 {
		t.Errorf("%s [%s/%s]: evaluated, but recorded runtime errors: %v", c.name, mode, engine, errs)
	}
	if mode == "det" && err == nil {
		assertAnalysisInvariants(t, m, c, engine)
	}
	return v, err
}

// assertAnalysisInvariants checks the paper's reachability-set identities
// on the final quiescent graph: the root is vitally reachable, the
// priority strata partition R, and R is disjoint from both the free set
// and the garbage set. Both engines' final graphs must satisfy the same
// identities — the compiled backend builds different interior structure,
// but never structure the analysis cannot account for.
func assertAnalysisInvariants(t *testing.T, m *dgr.Machine, c diffCase, engine string) {
	t.Helper()
	res := analysis.Analyze(m.Snapshot(), m.Root(), nil)
	tag := fmt.Sprintf("%s [det/%s]", c.name, engine)
	if !res.Rv[m.Root()] {
		t.Errorf("%s: root not vitally reachable in final graph", tag)
	}
	for id := range res.R {
		if res.F[id] {
			t.Errorf("%s: vertex %d both reachable and free", tag, id)
		}
		if res.Gar[id] {
			t.Errorf("%s: vertex %d both reachable and garbage", tag, id)
		}
		n := 0
		for _, set := range []map[graph.VertexID]bool{res.Rv, res.Re, res.Rr} {
			if set[id] {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: vertex %d in %d priority strata, want exactly 1", tag, id, n)
		}
	}
}

// assertAgainstReference checks one engine's outcome against the oracle.
func assertAgainstReference(t *testing.T, c diffCase, mode, engine string, v dgr.Value, err error) {
	t.Helper()
	tag := fmt.Sprintf("%s [%s/%s]", c.name, mode, engine)
	if c.outcome == refDeadlock {
		if !errors.Is(err, dgr.ErrDeadlock) {
			t.Errorf("%s: want ErrDeadlock, got (%v, %v)", tag, v, err)
		}
		return
	}
	if c.outcome == refStuck {
		if !errors.Is(err, dgr.ErrStuck) {
			t.Errorf("%s: want ErrStuck, got (%v, %v)", tag, v, err)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: eval: %v", tag, err)
		return
	}
	switch c.outcome {
	case refInt:
		if v.Kind != graph.KindInt || v.Int != c.wantInt {
			t.Errorf("%s: got %v, want int %d", tag, v, c.wantInt)
		}
	case refBool:
		if v.Kind != graph.KindBool || v.Bool != c.wantBool {
			t.Errorf("%s: got %v, want bool %v", tag, v, c.wantBool)
		}
	case refNil:
		if v.Kind != graph.KindNil {
			t.Errorf("%s: got %v, want nil", tag, v)
		}
	case refCons:
		if v.Kind != graph.KindCons {
			t.Errorf("%s: got %v, want cons", tag, v)
		}
	case refFunc:
		// Functional results have engine-specific WHNF shapes; reaching a
		// value without error is the cross-engine contract.
	}
}

// TestDifferentialEngines is the matrix: every corpus program through both
// engines in every mode, each cell checked against the reference oracle —
// so the two engines also agree with each other.
func TestDifferentialEngines(t *testing.T) {
	for _, c := range diffCorpus(t) {
		if c.outcome == refUnknown {
			t.Logf("%s: excluded (reference interpreter could not classify)", c.name)
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range diffModes {
				for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
					v, err := diffRun(t, c, mode, engine)
					assertAgainstReference(t, c, mode, engine, v, err)
				}
			}
		})
	}
}

// TestDifferentialWorkloadCorpus runs the real benchmark corpus (fib 16,
// primes, tak, parfib, churn, ...) through both engines in det and
// parallel modes — bigger programs, narrower matrix.
func TestDifferentialWorkloadCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("workload corpus differential skipped in short mode")
	}
	names := make([]string, 0, len(workload.Programs))
	for name := range workload.Programs {
		names = append(names, name)
	}
	for _, name := range names {
		name := name
		p := workload.Programs[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := diffCase{name: "workload/" + name, src: p.Src, outcome: refInt, wantInt: p.Want, errorFree: true}
			for _, mode := range []string{"det", "parallel"} {
				for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
					v, err := diffRun(t, c, mode, engine)
					assertAgainstReference(t, c, mode, engine, v, err)
				}
			}
		})
	}
}

// TestDifferentialGeneratedShrinks: the generator's shrinker must be
// usable as a counterexample minimizer against a cross-engine property.
// The property here is healthy (no mismatch exists), so the shrink loop
// must simply terminate and report no failure — this pins the harness
// plumbing the CI sweep relies on when a mismatch does appear.
func TestDifferentialGeneratedShrinks(t *testing.T) {
	g := lang.NewGen(4242, lang.GenConfig{MaxDepth: 4})
	e, _, _ := g.Program()
	mismatch := func(cand lang.Expr) bool {
		want, ok := lang.RefValue(cand, 400_000)
		if !ok {
			return false
		}
		for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
			m := dgr.New(diffOptions("det", engine, 1))
			v, err := m.Eval(cand.String())
			m.Close()
			if err != nil || v.Int != want {
				return true
			}
		}
		return false
	}
	if mismatch(e) {
		min := lang.ShrinkWhile(e, 200, mismatch)
		t.Fatalf("cross-engine mismatch; minimized counterexample:\n%s", min)
	}
}

// TestDifferentialValuePrimitives: step against fold. For every value
// primitive over the operand grid, `let f x y = x ⊕ y in f a b` runs on the
// compiled engine — f is strict in both parameters, so its operands are known
// and the application folds inside the body's execution — and on the
// interpreted engine, where the flattened primapp is stepped. Both read the
// one rule of graph's table, and must come to the same value or the same
// runtime-error text (a fold the rule refuses builds the primapp instead).
func TestDifferentialValuePrimitives(t *testing.T) {
	grid := map[graph.Kind][]string{
		graph.KindInt:  {"0", "1", "(0 - 1)", "(0 - 9223372036854775807 - 1)", "9223372036854775807"},
		graph.KindBool: {"false", "true"},
	}
	vertexIDs := regexp.MustCompile(`v\d+`)
	run := func(m *dgr.Machine, src string) string {
		v, err := m.Eval(src)
		if err != nil {
			return vertexIDs.ReplaceAllString(err.Error(), "v#")
		}
		return v.String()
	}
	interp := dgr.New(dgr.Options{PEs: 2, Seed: 1, Engine: dgr.EngineInterp})
	defer interp.Close()
	compiled := dgr.New(dgr.Options{PEs: 2, Seed: 1, Engine: dgr.EngineCompiled})
	defer compiled.Close()
	for p := graph.Prim(1); p < graph.PrimEnd; p++ {
		if p.Operand() == 0 {
			continue
		}
		bs := grid[p.Operand()]
		if p.Arity() == 1 {
			bs = []string{""}
		}
		for _, a := range grid[p.Operand()] {
			for _, b := range bs {
				src := fmt.Sprintf("let f x y = %s x y in f %s %s", p.Builtin(), a, b)
				if p.Arity() == 1 {
					src = fmt.Sprintf("let f x = %s x in f %s", p.Builtin(), a)
				}
				stepped, folded := run(interp, src), run(compiled, src)
				if stepped != folded {
					t.Errorf("%s: stepped %q, folded %q", src, stepped, folded)
				}
				if c := classify("", src); c.outcome == refInt && stepped != fmt.Sprint(c.wantInt) ||
					c.outcome == refBool && stepped != fmt.Sprint(c.wantBool) {
					t.Errorf("%s: engines say %q, oracle %d / %v", src, stepped, c.wantInt, c.wantBool)
				}
			}
		}
	}
}
