package lang

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dgr/internal/workload"
)

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func TestParseGolden(t *testing.T) {
	tests := []struct{ src, want string }{
		{"1 + 2 * 3", "((__add 1) ((__mul 2) 3))"},
		{"(1 + 2) * 3", "((__mul ((__add 1) 2)) 3)"},
		{"f x y", "((f x) y)"},
		{"\\x. x + 1", "(\\x. ((__add x) 1))"},
		{"\\x y. x", "(\\x y. x)"},
		{"if a then b else c", "(if a then b else c)"},
		{"let x = 1 in x", "(let x = 1 in x)"},
		{"let f x = x; g = 2 in f g", "(let f = (\\x. x); g = 2 in (f g))"},
		{"[1, 2]", "((cons 1) ((cons 2) []))"},
		{"1 : 2 : []", "((cons 1) ((cons 2) []))"},
		{"a == b && c < d", "((and ((__eq a) b)) ((__lt c) d))"},
		{"true || false", "((or true) false)"},
		{"x /= y", "((__ne x) y)"},
		{"1 - 2 - 3", "((__sub ((__sub 1) 2)) 3)"}, // left assoc
		{"f (g x)", "(f (g x))"},
		{"10 % 3", "((__mod 10) 3)"},
		{"x >= y", "((__ge x) y)"},
		{"not true", "(not true)"},
		{"[]", "[]"},
		{"-- comment\n42", "42"},
		{"# also comment\n42", "42"},
	}
	for _, tt := range tests {
		got := mustParse(t, tt.src).String()
		if got != tt.want {
			t.Errorf("parse %q = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1",
		"[1, 2",
		"let x 1 in x",
		"let in x",
		"if a then b",
		"\\. x",
		"\\x x",
		"1 2 )",
		"?",
		"let x = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

func TestParseOperatorRightOperandForms(t *testing.T) {
	// Lambdas/ifs directly to the right of an operator.
	mustParse(t, "1 + if true then 2 else 3")
	mustParse(t, "0 - \\x. x") // lambda after operator parses (nonsense but legal)
	// A lambda argument must be parenthesized.
	if _, err := Parse("twice \\x. x"); err == nil {
		t.Fatal("unparenthesized lambda argument should not parse")
	}
}

func TestFreeVars(t *testing.T) {
	e := mustParse(t, "\\x. x + y + (let z = w in z)")
	out := map[string]bool{}
	freeVars(e, map[string]bool{}, out)
	if !out["y"] || !out["w"] {
		t.Fatalf("free vars = %v, want y and w", out)
	}
	if out["x"] || out["z"] {
		t.Fatalf("bound vars leaked: %v", out)
	}
	// Builtins appear free; that is fine for this helper.
	if !out["__add"] {
		t.Fatalf("desugared builtin missing: %v", out)
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lex("a\nbb\n  c")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].line != 1 || toks[1].line != 2 || toks[2].line != 3 {
		t.Fatalf("line numbers wrong: %+v", toks)
	}
}

func TestLexerError(t *testing.T) {
	_, err := lex("a\n ? b")
	if err == nil {
		t.Fatal("expected lexer error for '?'")
	}
	if got, want := err.Error(), "line 2: unexpected character '?'"; got != want {
		t.Fatalf("error = %q, want %q", got, want)
	}
}

// TestLexAllocatesOnce checks that lex makes one allocation, its token slice,
// sized exactly: it counts the tokens before it writes them.
func TestLexAllocatesOnce(t *testing.T) {
	names := make([]string, 0, len(workload.Programs))
	for name := range workload.Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := workload.Programs[name].Src
		toks, err := lex(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(toks) != cap(toks) || toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("%s: %d tokens in a slice of capacity %d, last %v", name, len(toks), cap(toks), toks[len(toks)-1].kind)
		}
		allocs := testing.AllocsPerRun(20, func() { _, _ = lex(src) })
		if allocs != 1 {
			t.Fatalf("%s: lex made %v allocations per call, want 1", name, allocs)
		}
		if name == "churn" {
			t.Logf("census: lex allocations per call = %v (churn, %d tokens)", allocs, len(toks))
		}
	}
}

// genExpr builds a random well-formed expression for round-trip testing.
func genExpr(rng *rand.Rand, depth int, scope []string) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return IntLit{Val: int64(rng.Intn(100))}
		case 1:
			return BoolLit{Val: rng.Intn(2) == 0}
		case 2:
			if len(scope) > 0 {
				return Var{Name: scope[rng.Intn(len(scope))]}
			}
			return IntLit{Val: 1}
		default:
			return NilLit{}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return App{Fun: genExpr(rng, depth-1, scope), Arg: genExpr(rng, depth-1, scope)}
	case 1:
		p := fmt.Sprintf("p%d", len(scope))
		return Lam{Params: []string{p}, Body: genExpr(rng, depth-1, append(scope, p))}
	case 2:
		return If{
			Cond: genExpr(rng, depth-1, scope),
			Then: genExpr(rng, depth-1, scope),
			Else: genExpr(rng, depth-1, scope),
		}
	case 3:
		n := fmt.Sprintf("b%d", len(scope))
		inner := append(scope, n)
		return Let{
			Binds: []Bind{{Name: n, Val: genExpr(rng, depth-1, inner)}},
			Body:  genExpr(rng, depth-1, inner),
		}
	default:
		return genExpr(rng, depth-1, scope)
	}
}

// TestParseRoundTrip: printing and re-parsing a random AST is a fixpoint
// (String renders fully parenthesized, so one round trip normalizes).
func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		e := genExpr(rng, 4, nil)
		src := e.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", src, err)
		}
		if parsed.String() != src {
			t.Fatalf("round trip changed:\n  orig: %s\n  got:  %s", src, parsed.String())
		}
	}
}
