package dgr_test

// Runtime errors and the evaluation outcome. A runtime error (type error,
// division by zero) belongs to the evaluation that raised it, and decides
// the outcome only when no value is delivered: speculative work that raised
// one and was then dereferenced is irrelevant (Property 6), and the next
// evaluation on the same machine starts with none. lang.Interp is the
// oracle for the outcome in every cell (classify, differential_test.go).

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dgr"
)

const guardedDivision = "let safe d = if d == 0 then 0 else 100 / d in safe 0 + safe 5"

var runtimeErrorPrograms = []string{
	"spec (1/0) 2",
	guardedDivision,
	"1 / 0",
	"1 + true",
	"head 3",
	"if 3 then 1 else 2",
	"7 % 0",
	"not 3",
	"neg true",
	"seq (1/0) 2",
	"par (1/0) 2",
	"isnil (1/0)",
	"let k x y = x in k 3 (1/0)",
	"let x = 1/0 in if true then 2 else x",
	"let x = x + 1 in x",
	// A knot inside an application spine: the spine does not resolve, so the
	// function position is demanded and the knot deadlocks.
	"let g = g in g 1 2",
}

func TestRuntimeErrorMatrix(t *testing.T) {
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		for _, parallel := range []bool{false, true} {
			for _, specIf := range []bool{false, true} {
				opts := dgr.Options{PEs: 2, Seed: 3, Engine: engine,
					Parallel: parallel, SpeculativeIf: specIf, CheckEvery: 256}
				mode := fmt.Sprintf("parallel=%v/specif=%v", parallel, specIf)
				t.Run(engine+"/"+mode, func(t *testing.T) {
					t.Parallel()
					for _, src := range runtimeErrorPrograms {
						m := dgr.New(opts)
						v, err := m.Eval(src)
						assertAgainstReference(t, classify(src, src), mode, engine, v, err)
						// The machine is as good as new for the next program.
						if v, err := m.Eval("1 + 2"); err != nil || v.Int != 3 {
							t.Errorf("%q then 1 + 2: got (%v, %v), want (3, nil)", src, v, err)
						}
						if cerr := m.CheckErr(); cerr != nil {
							t.Errorf("%q: invariant violations: %v", src, cerr)
						}
						m.Close()
					}
				})
			}
		}
	}
}

// TestSpeculationErrorIsIrrelevant: spec's first operand is requested eagerly
// and dereferenced the moment the spec collapses; whether its task ran first
// depends on the seed, and must not decide the outcome.
func TestSpeculationErrorIsIrrelevant(t *testing.T) {
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		for seed := int64(0); seed < 8; seed++ {
			m := dgr.New(dgr.Options{PEs: 2, Engine: engine, Seed: seed})
			v, err := m.Eval("spec (1/0) 2")
			if err != nil || v.Int != 2 {
				t.Errorf("%s seed %d: got (%v, %v), want (2, nil)", engine, seed, v, err)
			}
			m.Close()
		}
	}
	for run := 0; run < 20; run++ {
		m := dgr.New(dgr.Options{PEs: 2, SpeculativeIf: true, Parallel: true})
		v, err := m.Eval(guardedDivision)
		if err != nil || v.Int != 20 {
			t.Errorf("run %d: guarded division under SpeculativeIf: got (%v, %v), want (20, nil)", run, v, err)
		}
		m.Close()
	}
}

// TestRuntimeErrorIsTheDiagnosis: a stuck evaluation reports its own first
// runtime error, in both modes, ahead of the deadlock verdict M_T reaches
// for the same (semantically ⊥) vertex — and only its own.
func TestRuntimeErrorIsTheDiagnosis(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		runs := 1
		if parallel {
			runs = 20
		}
		for run := 0; run < runs; run++ {
			m := dgr.New(dgr.Options{PEs: 2, Parallel: parallel})
			_, err := m.Eval("1 / 0")
			if !errors.Is(err, dgr.ErrStuck) || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("parallel=%v run %d: 1 / 0: got %v, want ErrStuck wrapping division by zero", parallel, run, err)
			}
			if n := len(m.RuntimeErrors()); n != 1 {
				t.Errorf("parallel=%v: %d runtime errors after 1 / 0, want 1", parallel, n)
			}
			_, err = m.Eval("1 + true")
			if !errors.Is(err, dgr.ErrStuck) || !strings.Contains(err.Error(), "has kind bool, want int") {
				t.Errorf("parallel=%v run %d: 1 + true after 1 / 0: got %v, want its own type error", parallel, run, err)
			}
			if v, err := m.Eval("1 + 2"); err != nil || v.Int != 3 {
				t.Errorf("parallel=%v run %d: 1 + 2 after failures: got (%v, %v), want (3, nil)", parallel, run, v, err)
			}
			if errs := m.RuntimeErrors(); len(errs) != 0 {
				t.Errorf("parallel=%v: a clean evaluation reports runtime errors %v", parallel, errs)
			}
			m.Close()
		}
	}
}
