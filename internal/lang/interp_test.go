package lang

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dgr/internal/graph"
)

func evalInt(t *testing.T, src string) int64 {
	t.Helper()
	v, err := NewInterp(1_000_000).EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	i, ok := v.(IInt)
	if !ok {
		t.Fatalf("eval %q = %T, want int", src, v)
	}
	return int64(i)
}

func evalBool(t *testing.T, src string) bool {
	t.Helper()
	v, err := NewInterp(1_000_000).EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	b, ok := v.(IBool)
	if !ok {
		t.Fatalf("eval %q = %T, want bool", src, v)
	}
	return bool(b)
}

func TestInterpArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"neg 5", -5},
		{"0 - 7", -7},
	}
	for _, tt := range tests {
		if got := evalInt(t, tt.src); got != tt.want {
			t.Errorf("%q = %d, want %d", tt.src, got, tt.want)
		}
	}
}

func TestInterpRecursion(t *testing.T) {
	if got := evalInt(t, "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 10"); got != 3628800 {
		t.Fatalf("fac 10 = %d", got)
	}
	if got := evalInt(t, "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15"); got != 610 {
		t.Fatalf("fib 15 = %d", got)
	}
	if !evalBool(t, "let even n = if n == 0 then true else odd (n - 1); odd n = if n == 0 then false else even (n - 1) in even 10") {
		t.Fatal("mutual recursion broken")
	}
}

func TestInterpHigherOrder(t *testing.T) {
	if got := evalInt(t, "let twice f x = f (f x) in twice (\\x. x + 1) 5"); got != 7 {
		t.Fatalf("twice = %d", got)
	}
	if got := evalInt(t, "let compose f g x = f (g x) in compose neg neg 3"); got != 3 {
		t.Fatalf("compose = %d", got)
	}
}

func TestInterpLists(t *testing.T) {
	src := `let map f xs = if isnil xs then [] else f (head xs) : map f (tail xs);
	            sum xs = if isnil xs then 0 else head xs + sum (tail xs)
	        in sum (map (\x. x * x) [1,2,3,4])`
	if got := evalInt(t, src); got != 30 {
		t.Fatalf("sum of squares = %d", got)
	}
}

func TestInterpLaziness(t *testing.T) {
	if got := evalInt(t, "let ones = 1 : ones in head (tail ones)"); got != 1 {
		t.Fatalf("infinite list head = %d", got)
	}
	if got := evalInt(t, "head [5, bottom]"); got != 5 {
		t.Fatalf("lazy list elem = %d", got)
	}
	if got := evalInt(t, "let k x y = x in k 3 bottom"); got != 3 {
		t.Fatalf("lazy k = %d", got)
	}
}

func TestInterpFix(t *testing.T) {
	if got := evalInt(t, "fix (\\f. \\n. if n == 0 then 1 else n * f (n - 1)) 5"); got != 120 {
		t.Fatalf("fix fac 5 = %d", got)
	}
}

func TestInterpSeqSpecPar(t *testing.T) {
	if got := evalInt(t, "seq (1 + 1) 9"); got != 9 {
		t.Fatal("seq")
	}
	if got := evalInt(t, "spec (1 + 1) 9"); got != 9 {
		t.Fatal("spec")
	}
	if got := evalInt(t, "par (1 + 1) 9"); got != 9 {
		t.Fatal("par")
	}
	// seq forces its first argument.
	if _, err := NewInterp(1000).EvalString("seq bottom 9"); !errors.Is(err, ErrBottom) {
		t.Fatalf("seq bottom: err = %v", err)
	}
	// spec does not (in the reference semantics).
	if got := evalInt(t, "spec bottom 9"); got != 9 {
		t.Fatal("spec bottom")
	}
}

func TestInterpDeadlock(t *testing.T) {
	_, err := NewInterp(1000).EvalString("let x = x + 1 in x")
	if !errors.Is(err, ErrBottom) {
		t.Fatalf("x = x+1: err = %v, want ErrBottom", err)
	}
}

func TestInterpFuel(t *testing.T) {
	_, err := NewInterp(1000).EvalString("let loop n = loop (n + 1) in loop 0")
	if !errors.Is(err, ErrFuel) {
		t.Fatalf("divergence: err = %v, want ErrFuel", err)
	}
}

func TestInterpErrors(t *testing.T) {
	bad := []string{
		"1 / 0",
		"1 % 0",
		"1 + true",
		"if 1 then 2 else 3",
		"head 5",
		"unboundname",
		"5 6",
	}
	for _, src := range bad {
		if _, err := NewInterp(10000).EvalString(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestInterpIsBottom(t *testing.T) {
	if !evalBool(t, "isbottom (let x = x + 1 in x)") {
		t.Fatal("isbottom of a knot should be true")
	}
	if evalBool(t, "isbottom (1 + 1)") {
		t.Fatal("isbottom of a value should be false")
	}
}

// operandGrid is the operand values a value primitive is checked over, per
// operand kind: the identities, both signs, and both ends of int64.
var operandGrid = map[graph.Kind][]int64{
	graph.KindInt:  {0, 1, -1, math.MinInt64, math.MaxInt64},
	graph.KindBool: {0, 1},
}

// TestPrimTableAgainstOracle: for every value primitive, graph's one rule
// (what both engines step and fold by) agrees with the independent
// interpreter on the corresponding term — the same value, or both a runtime
// error of the same name. MinInt64 / -1 wraps; it does not panic.
func TestPrimTableAgainstOracle(t *testing.T) {
	lit := func(k graph.Kind, v int64) Expr {
		if k == graph.KindBool {
			return &BoolLit{Val: v != 0}
		}
		return &IntLit{Val: v}
	}
	checked := 0
	for p := graph.Prim(1); p < graph.PrimEnd; p++ {
		k := p.Operand()
		if k == 0 {
			continue
		}
		ys := operandGrid[k]
		if p.Arity() == 1 {
			ys = []int64{0}
		}
		for _, x := range operandGrid[k] {
			for _, y := range ys {
				term := Expr(&App{Fun: &Var{Name: p.Builtin()}, Arg: lit(k, x)})
				if p.Arity() == 2 {
					term = &App{Fun: term, Arg: lit(k, y)}
				}
				want, werr := NewInterp(100).Eval(term)
				kind, val, errName := p.Apply(x, y)
				checked++
				if werr != nil || errName != "" {
					if werr == nil || werr.Error() != errName {
						t.Errorf("%v: table error %q, oracle (%v, %v)", term, errName, want, werr)
					}
					continue
				}
				if got := lit(kind, val); kind != graph.KindInt && kind != graph.KindBool ||
					fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%v: table says %v, oracle %v", term, got, want)
				}
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d cells checked: the value primitives were not found", checked)
	}
}
