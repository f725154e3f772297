package dgr_test

import (
	"errors"
	"fmt"
	"testing"

	"dgr"
)

// evalListSrc is a list whose elements each take several collector cycles'
// worth of reduction: while one element is being forced, the cells and
// elements after it are reachable from the list's root and from nowhere
// else.
const evalListSrc = `let fib n = if n < 2 then n else fib (n-1) + fib (n-2);
	from k = if k > 3 then [] else fib (%d + k) : from (k + 1) in from 1`

// TestEvalListKeepsUnwalkedTail is the regression for EvalList re-rooting
// the collector at each element it forces: a cycle during that evaluation
// swept the rest of the list. Every engine × mode × collection-interval
// cell must return the whole list with a clean checker.
func TestEvalListKeepsUnwalkedTail(t *testing.T) {
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		for _, parallel := range []bool{false, true} {
			for _, c := range []struct {
				gcInterval, base int // elements are fib (base+1..3)
				want             string
			}{
				{500, 7, "[21 34 55]"},
				{0, 12, "[233 377 610]"}, // the default interval, 20000 steps
			} {
				name := fmt.Sprintf("%s/parallel=%v/gc=%d", engine, parallel, c.gcInterval)
				t.Run(name, func(t *testing.T) {
					m := dgr.New(dgr.Options{
						PEs: 2, Engine: engine,
						Parallel: parallel, GCInterval: c.gcInterval, CheckEvery: 256,
					})
					defer m.Close()
					vs, err := m.EvalList(fmt.Sprintf(evalListSrc, c.base))
					if err != nil {
						t.Fatalf("EvalList: %v (got %v so far)", err, vs)
					}
					if got := fmt.Sprint(vs); got != c.want {
						t.Fatalf("EvalList = %s, want %s", got, c.want)
					}
					if err := m.CheckErr(); err != nil {
						t.Fatalf("checker: %v", err)
					}
				})
			}
		}
	}
}

// TestEvalListDeadlockedElement: pinning the list must not hide a deadlock
// inside one of its elements.
func TestEvalListDeadlockedElement(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			m := dgr.New(dgr.Options{PEs: 2, MTEvery: 1, Parallel: parallel, CheckEvery: 256})
			defer m.Close()
			vs, err := m.EvalList(`[1, let x = x + 1 in x, 3]`)
			if !errors.Is(err, dgr.ErrDeadlock) {
				t.Fatalf("EvalList = %v, %v; want ErrDeadlock at the second element", vs, err)
			}
			if got := fmt.Sprint(vs); got != "[1]" {
				t.Fatalf("elements before the deadlock = %s, want [1]", got)
			}
			if err := m.CheckErr(); err != nil {
				t.Fatalf("checker: %v", err)
			}
		})
	}
}
