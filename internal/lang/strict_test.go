package lang

import (
	"fmt"
	"strings"
	"testing"
)

func liftedMasks(t *testing.T, src string) (*SCProg, [][]bool) {
	t.Helper()
	sc, err := Lift(mustParse(t, src))
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	return sc, strictMasks(sc)
}

// TestStrictnessSettlesLongChains: a round settles one link of a call chain,
// so a chain of n supers needs n+1 rounds. The fixpoint must be reached
// however long the chain is: a round cap below that would give up and
// claim nothing for every super.
func TestStrictnessSettlesLongChains(t *testing.T) {
	for _, n := range []int{1, 19, 20, 21, 64, 100} {
		var binds []string
		for i := 1; i < n; i++ {
			binds = append(binds, fmt.Sprintf("f%d x y = f%d x y", i, i+1))
		}
		binds = append(binds, fmt.Sprintf("f%d x y = x + 1", n))
		src := "let " + strings.Join(binds, "; ") + " in f1 1 2"
		sc, masks := liftedMasks(t, src)
		strictInX := 0
		for i, m := range masks {
			if len(m) != 2 || m[1] {
				t.Fatalf("n=%d: %s has mask %v, want [true false]", n, sc.Supers[i].Name, m)
			}
			if m[0] {
				strictInX++
			}
		}
		if strictInX != n {
			t.Errorf("n=%d: %d of %d supers strict in x, want all", n, strictInX, n)
		}
	}
}

// TestStrictnessWideSupers covers needed-sets wider than one word: a
// super of 70 parameters strict in some on either side of the 64th, and a
// caller that passes its own 70 parameters straight through.
func TestStrictnessWideSupers(t *testing.T) {
	const n = 70
	params := make([]string, n)
	for i := range params {
		params[i] = fmt.Sprintf("p%d", i)
	}
	qs := strings.ReplaceAll(strings.Join(params, " "), "p", "q")
	src := fmt.Sprintf(`let g %s = p0 + p65 + (if p66 then p67 else p67 + p3);
    k %s = g %s
in k %s`, strings.Join(params, " "), qs, qs, strings.TrimSpace(strings.Repeat("true ", n)))
	sc, masks := liftedMasks(t, src)
	want := map[int]bool{0: true, 65: true, 66: true, 67: true}
	for i, m := range masks {
		if len(m) != n {
			t.Fatalf("%s: mask of %d, want %d", sc.Supers[i].Name, len(m), n)
		}
		for p, strict := range m {
			if strict != want[p] {
				t.Errorf("%s: parameter %d strict=%v, want %v", sc.Supers[i].Name, p, strict, want[p])
			}
		}
	}
}

// TestStrictnessRoundsAllocateNothing: the needed-sets live on a stack
// that one analysis reuses, so the allocations of an analysis do not grow
// with the rounds it takes.
func TestStrictnessRoundsAllocateNothing(t *testing.T) {
	chain := func(n int) *SCProg {
		var binds []string
		for i := 1; i < n; i++ {
			binds = append(binds, fmt.Sprintf("f%d x y = f%d x y", i, i+1))
		}
		binds = append(binds, fmt.Sprintf("f%d x y = x + 1", n))
		sc, err := Lift(mustParse(t, "let "+strings.Join(binds, "; ")+" in f1 1 2"))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	short, long := chain(8), chain(40)
	a := testing.AllocsPerRun(10, func() { _ = strictMasks(short) })
	b := testing.AllocsPerRun(10, func() { _ = strictMasks(long) })
	if a != b {
		t.Errorf("strictness made %v allocations for a chain of 8 (9 rounds) and %v for a chain of 40 (41 rounds), want the same", a, b)
	}
}
