package lang

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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

// tokens pulls every token of src from the lexer, the closing EOF
// included, and checks that scan counts as many.
func tokens(t testing.TB, src string) ([]token, error) {
	t.Helper()
	c, err := scan(src)
	lx := newLexer(src)
	var toks []token
	for {
		tok, perr := lx.next()
		if perr != nil {
			if err == nil || perr.Error() != err.Error() {
				t.Fatalf("%q: pulling fails with %v, scan with %v", src, perr, err)
			}
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			break
		}
	}
	if err != nil || c.tokens != len(toks) {
		t.Fatalf("%q: scan counts %d tokens (err %v), pulling gives %d", src, c.tokens, err, len(toks))
	}
	if again, _ := lx.next(); again.kind != tokEOF {
		t.Fatalf("%q: a pull past EOF gives %v", src, again)
	}
	return toks, nil
}

func TestLexerPositions(t *testing.T) {
	toks, err := tokens(t, "a\nbb\n  c")
	if err != nil {
		t.Fatal(err)
	}
	want := []token{
		{kind: tokIdent, text: "a", pos: 0, line: 1},
		{kind: tokIdent, text: "bb", pos: 2, line: 2},
		{kind: tokIdent, text: "c", pos: 7, line: 3},
		{kind: tokEOF, pos: 8, line: 3},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %+v, want %+v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
}

func TestLexerError(t *testing.T) {
	const want = "line 2: unexpected character '?'"
	if _, err := tokens(t, "a\n ? b"); err == nil || err.Error() != want {
		t.Fatalf("lexing: error = %v, want %q", err, want)
	}
	if _, err := Parse("a\n ? b"); err == nil || err.Error() != want {
		t.Fatalf("parsing: error = %v, want %q", err, want)
	}
}

// TestLexErrorComesFirst: Parse scans the whole source before it parses,
// so a lexical error is the one reported even where a parse error comes
// earlier in the text.
func TestLexErrorComesFirst(t *testing.T) {
	tests := []struct{ src, want string }{
		{"let x = ( in ?", "line 1: unexpected character '?'"},
		{"1 +\n)\n\n$", "line 4: unexpected character '$'"},
		{"if then else 99999999999999999999 ~", "line 1: unexpected character '~'"},
		{"let x = ( in x", `line 1: unexpected keyword "in"`},
		{"99999999999999999999 + (", `line 1: integer literal "99999999999999999999" out of range`},
	}
	for _, tt := range tests {
		_, err := Parse(tt.src)
		if err == nil || err.Error() != tt.want {
			t.Errorf("Parse(%q) error = %v, want %q", tt.src, err, tt.want)
		}
	}
}

// TestIntegerLiteralRange: a literal that does not fit in int64 is a parse
// error naming it, not a value wrapped around; the largest one parses.
func TestIntegerLiteralRange(t *testing.T) {
	for _, src := range []string{"99999999999999999999 + 1", "9223372036854775808", "1 +\n18446744073709551617"} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Parse(%q) error = %v, want out of range", src, err)
		}
		if _, err := NewInterp(1000).EvalString(src); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("EvalString(%q) error = %v, want out of range", src, err)
		}
	}
	if _, err := Parse("1 +\n18446744073709551617"); err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Errorf("error %v does not name line 2", err)
	}
	v, err := NewInterp(1000).EvalString("9223372036854775807")
	if err != nil || v != IInt(math.MaxInt64) {
		t.Fatalf("max int64 literal = %v, %v", v, err)
	}
}

// TestUnicodeIdentifiers: identifiers are lexed as UTF-8, so a letter
// outside ASCII is a letter, and an error names the character, not one of
// its bytes.
func TestUnicodeIdentifiers(t *testing.T) {
	v, err := NewInterp(1000).EvalString("let café = 1; λ x = x + café in λ 41")
	if err != nil || v != IInt(42) {
		t.Fatalf("unicode identifiers = %v, %v", v, err)
	}
	e := mustParse(t, "\\été. été")
	if got := e.String(); got != "(\\été. été)" {
		t.Fatalf("String = %s", got)
	}
	for src, want := range map[string]string{
		"1 + ©":    "line 1: unexpected character '©'",
		"x\n→ y":   "line 2: unexpected character '→'",
		"a \xff b": "line 1: invalid UTF-8 byte 0xff",
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %q", src, err, want)
		}
	}
}

// checkTally checks that scan's tally of src counts exactly the nodes of
// each kind in e, its parse: every slab of the parse is then one
// allocation, used to its end.
func checkTally(t testing.TB, src string, e Expr) {
	t.Helper()
	c, err := scan(src)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[*Var]bool{consVar: true}
	for _, op := range binOps {
		shared[op.builtin] = true
	}
	var got tally
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Var:
			if !shared[x] {
				got.vars++
			}
		case *IntLit:
			got.ints++
		case *App:
			got.apps++
			walk(x.Fun)
			walk(x.Arg)
		case *If:
			got.ifs++
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *Lam:
			got.lams++
			got.names += len(x.Params)
			walk(x.Body)
		case *Let:
			got.lets++
			got.binds += len(x.Binds)
			for _, b := range x.Binds {
				walk(b.Val)
			}
			walk(x.Body)
		}
	}
	walk(e)
	c.tokens, c.run, c.atomEnd, c.opened = 0, 0, false, false
	if c != got {
		t.Fatalf("%q: tally %+v, parse built %+v", src, c, got)
	}
}

// TestTallyIsExact: scan's tally counts every corpus program's nodes
// exactly, so Parse sizes each of its slabs to what it builds.
func TestTallyIsExact(t *testing.T) {
	srcs := []string{
		"[]", "[[1], [], [2, 3]] ", "(\\f x y. f x y) (\\a b. a) 1 2",
		"let f x y = x; g = \\z. z; h = 1 in f (g h) [h]",
		"true false 1 (2) [3] x", "1 : 2 : [] == [3] && (x || \\y. y)",
	}
	for _, p := range workload.Programs {
		srcs = append(srcs, p.Src)
	}
	for _, src := range srcs {
		checkTally(t, src, mustParse(t, src))
	}
}

// TestShortTallyGrowsSlabs: where the tally counts short (a lambda
// header with no '.' holds parameters it never counted), the slabs grow
// geometrically: thirty thousand parameters take a few dozen allocations,
// not one per parameter, and the parse stays linear in the source.
func TestShortTallyGrowsSlabs(t *testing.T) {
	for _, src := range []string{
		"\\" + strings.Repeat("a ", 30000),
		"let " + strings.Repeat("a ", 30000),
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := Parse(src); err == nil {
				t.Fatalf("%.20q: parsed", src)
			}
		})
		if allocs > 40 {
			t.Errorf("%.20q: %v allocations", src, allocs)
		}
	}
}

// TestLexAllocatesNothing checks that lexing allocates nothing: scan
// counting every token, and a lexer pulling them one at a time.
func TestLexAllocatesNothing(t *testing.T) {
	names := make([]string, 0, len(workload.Programs))
	for name := range workload.Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := workload.Programs[name].Src
		c, err := scan(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			_, _ = scan(src)
			lx := newLexer(src)
			for tok, _ := lx.next(); tok.kind != tokEOF; tok, _ = lx.next() {
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: lexing made %v allocations, want 0", name, allocs)
		}
		if name == "churn" {
			t.Logf("census: lex allocations per call = %v (churn, %d tokens)", allocs, c.tokens)
		}
	}
}

// genExpr builds a random well-formed expression for round-trip testing.
func genExpr(rng *rand.Rand, depth int, scope []string) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return &IntLit{Val: int64(rng.Intn(100))}
		case 1:
			return &BoolLit{Val: rng.Intn(2) == 0}
		case 2:
			if len(scope) > 0 {
				return &Var{Name: scope[rng.Intn(len(scope))]}
			}
			return &IntLit{Val: 1}
		default:
			return &NilLit{}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return &App{Fun: genExpr(rng, depth-1, scope), Arg: genExpr(rng, depth-1, scope)}
	case 1:
		p := fmt.Sprintf("p%d", len(scope))
		return &Lam{Params: []string{p}, Body: genExpr(rng, depth-1, append(scope, p))}
	case 2:
		return &If{
			Cond: genExpr(rng, depth-1, scope),
			Then: genExpr(rng, depth-1, scope),
			Else: genExpr(rng, depth-1, scope),
		}
	case 3:
		n := fmt.Sprintf("b%d", len(scope))
		inner := append(scope, n)
		return &Let{
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
