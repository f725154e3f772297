package lang

import (
	"strings"
	"testing"
)

// Lift builds a fresh supercombinator program; the input AST must come
// through untouched. The serving layer depends on this: a machine keys its
// memo cache on the canonical digest of the parsed program, then hands the
// same AST to the compiled back end — a mutating Lift would silently
// poison every digest computed after the first compiled run.
func TestLiftDoesNotMutateInput(t *testing.T) {
	srcs := []string{
		"let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10",
		"let f = \\x. \\y. x + y in f 1 2",
		"let compose f g x = f (g x); inc n = n + 1 in compose inc inc 40",
		"let a = b + 1; b = a + 1 in a",
		"let upto a b = if a > b then [] else a : upto (a + 1) b in upto 1 5",
		"(\\x. x x) (\\x. 1)",
	}
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		before := Digest(e)
		if _, err := Lift(e); err != nil {
			t.Fatalf("lift %q: %v", src, err)
		}
		if after := Digest(e); after != before {
			t.Errorf("Lift mutated its input for %q: digest %s -> %s", src, before, after)
		}
	}

	// Generated programs sweep a wider range of shapes through the same
	// invariant.
	g := NewGen(4242, GenConfig{})
	for i := 0; i < 25; i++ {
		e, src, _ := g.Program()
		before := Digest(e)
		if _, err := Lift(e); err != nil {
			t.Fatalf("lift generated %q: %v", src, err)
		}
		if after := Digest(e); after != before {
			t.Errorf("Lift mutated generated program %q: digest %s -> %s", src, before, after)
		}
	}
}

// TestLiftLeavesNoLambda: every lambda, a let-bound one that nothing calls
// included, leaves the lifted program, and a subtree lifting does not
// change comes back as the same tree.
func TestLiftLeavesNoLambda(t *testing.T) {
	srcs := []string{
		"let f x = x in 1",
		"let f x = x; y = 2 in y",
		"let y = 2 in let f x = x + y in 3",
		"1 + (let k = \\a. a in 2)",
		"if (\\x. x) true then 1 else 2",
	}
	for _, src := range srcs {
		sc, err := Lift(mustParse(t, src))
		if err != nil {
			t.Fatalf("lift %q: %v", src, err)
		}
		exprs := []Expr{sc.Main}
		for _, s := range sc.Supers {
			exprs = append(exprs, s.Body)
		}
		for _, e := range exprs {
			if s := e.String(); strings.Contains(s, "\\") {
				t.Errorf("lift %q left a lambda in %s", src, s)
			}
		}
	}
	e := mustParse(t, "let y = 2 in if y > 1 then y + 1 else 0")
	sc, err := Lift(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Supers) != 0 || sc.Main.String() != e.String() {
		t.Fatalf("lifting a lambda-free program made %d supers and main %s", len(sc.Supers), sc.Main)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = Lift(e) }); allocs > 4 {
		t.Errorf("lifting a lambda-free program made %v allocations, want at most 4 (the program, its index and the lifter's two stacks)", allocs)
	}
}
