package lang

import (
	"strings"
	"testing"

	"dgr/internal/gm"
	"dgr/internal/graph"
)

// Fuzz targets for the language front end. The contract under fuzzing is
// "no panic, no hang": arbitrary input must either produce a value or a
// Go error. Semantic correctness is the differential harness's job; these
// targets protect the lexer/parser/lifter/compilers from crash bugs on
// adversarial input (deep nesting, stray operators, huge literals).

// fuzzSeeds exercises every syntactic construct at least once; the same
// list seeds all three targets so a parser seed that reaches the compiler
// stays interesting there.
var fuzzSeeds = []string{
	"1 + 2 * 3",
	"let f = \\x. x + 1 in f 41",
	"let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10",
	"let x = x + 1 in x",
	"if true then 1 else 2",
	"[1, 2, 3]",
	"1 : 2 : []",
	"head [1]",
	"let a = b + 1; b = a + 1 in a",
	"\\x. \\y. x y",
	"let tak x y z = if y >= x then z else tak (tak (x-1) y z) (tak (y-1) z x) (tak (z-1) x y) in tak 4 2 1",
	"((((((1))))))",
	"- 1",
	"let in 1",
	"[",
	"1 +",
	"seq bottom 1",
	"isbottom (let x = x in x)",
	"99999999999999999999 + 1",
}

// FuzzLex: the lexer must terminate without panicking on arbitrary bytes,
// and scan must count the tokens a lexer pulls, or fail as it does.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add("\x00\xff")
	f.Add("let café = 1 in café")
	f.Add("1 + ©")
	f.Add(strings.Repeat("~", 64))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		_, _ = tokens(t, src)
	})
}

// FuzzParse: parse, and when parsing succeeds, require that scan's tally
// counted the tree's nodes exactly and that the printed form re-parses (String is the generator's bridge into Machine.Eval, so
// a print/re-parse gap is a real bug, not fuzz noise). Negative literals
// are the one known asymmetry: they only arise from evaluation, never
// from parsing, so printed output cannot contain them here.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(strings.Repeat("(", 1<<12))
	f.Add(strings.Repeat("1:", 1<<12) + "1")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		e, err := Parse(src)
		if err != nil {
			return
		}
		checkTally(t, src, e)
		printed := e.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\nsrc: %q\nprinted: %q", err, src, printed)
		}
		if Digest(back) != Digest(e) {
			t.Fatalf("print/re-parse changed the program\nsrc: %q\nprinted: %q", src, printed)
		}
	})
}

// FuzzCompile: everything that parses must survive both back ends — the
// interpreter-path graph compiler and the lift + supercombinator
// compiler — returning either a root vertex or an error.
func FuzzCompile(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		if _, err := Parse(src); err != nil {
			return
		}
		store := graph.NewStore(graph.Config{})
		_, _ = CompileString(store, src)
		store2 := graph.NewStore(graph.Config{})
		_, _ = CompileSupers(store2, gm.NewProgram(), src)
	})
}
