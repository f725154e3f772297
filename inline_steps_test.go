package dgr_test

import (
	"fmt"
	"slices"
	"testing"

	"dgr"
	"dgr/internal/workload"
)

// inlineRun is what one seeded evaluation of a corpus program did.
type inlineRun struct {
	value string
	stats dgr.Stats
}

// runInline evaluates src, spawning every continuation as a Reduce task and
// every demand and result as itself unless inPlace.
func runInline(t *testing.T, engine string, seed int64, inPlace bool, src string) inlineRun {
	t.Helper()
	m := dgr.New(dgr.Options{PEs: 4, Seed: seed, Engine: engine})
	defer m.Close()
	if !inPlace {
		dgr.SetInlineBudget(m, 0)
	}
	v, err := m.Eval(src)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	m.Pump(0) // the tasks still queued when the value came
	return inlineRun{value: v.String(), stats: m.Stats()}
}

// eachInlinePair runs every workload corpus program on both engines and
// three seeds, at budget 0 and at the default, and hands each pair to check
// as a subtest. Both runs go to quiescence, so the tasks still queued when
// the value came count in both.
func eachInlinePair(t *testing.T, check func(t *testing.T, engine, want string, tasks, inline inlineRun)) {
	names := make([]string, 0, len(workload.Programs))
	for name := range workload.Programs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, name := range names {
				p := workload.Programs[name]
				t.Run(fmt.Sprintf("%s/seed=%d/%s", engine, seed, name), func(t *testing.T) {
					check(t, engine, fmt.Sprint(p.Want),
						runInline(t, engine, seed, false, p.Src), runInline(t, engine, seed, true, p.Src))
				})
			}
		}
	}
}

// TestInlineStepsAreReduceTasks: running steps in place — a continuation on
// the task's own vertex, or a local demand or result handed off — changes
// where a step runs, not what the machine computes. Over the corpus a
// machine that spawns every task (budget 0) and one that runs steps in place
// (the default) agree exactly on the value, the rewrites and the allocations.
func TestInlineStepsAreReduceTasks(t *testing.T) {
	eachInlinePair(t, func(t *testing.T, _, want string, tasks, inline inlineRun) {
		if tasks.value != want || inline.value != want {
			t.Fatalf("value = %s at budget 0 and %s in place, want %s", tasks.value, inline.value, want)
		}
		a, b := tasks.stats, inline.stats
		if a.Rewrites != b.Rewrites || a.Allocations != b.Allocations {
			t.Errorf("Rewrites, Allocations = %d, %d at budget 0, %d, %d in place",
				a.Rewrites, a.Allocations, b.Rewrites, b.Allocations)
		}
	})
}

// TestHandOffsAreSteps: a step run in place is a reduction task the machine
// did not spawn. Over each engine's runs, the reduction executions at budget
// 0 are, within 1 %, the reduction executions plus the inline steps
// (continuations and hand-offs) at the default. They are not equal: run
// depth first, a different number of steps find their vertex still waiting
// on an operand, and where a collector cycle expunges irrelevant tasks,
// which of them are still queued is the schedule's to say. Each run's
// residual is logged; DESIGN §8, "A local demand or result runs in place",
// has them.
func TestHandOffsAreSteps(t *testing.T) {
	var budget0, inPlace [2]int64 // by engine: interp, compiled
	eachInlinePair(t, func(t *testing.T, engine, _ string, tasks, inline inlineRun) {
		a, b := tasks.stats, inline.stats
		if a.InlineSteps != 0 {
			t.Errorf("budget 0 ran %d steps in place", a.InlineSteps)
		}
		if 2*b.ReductionTasks > a.ReductionTasks {
			t.Errorf("%d reduction executions in place against %d at budget 0: too few steps ran in place",
				b.ReductionTasks, a.ReductionTasks)
		}
		steps := b.ReductionTasks + b.InlineSteps
		t.Logf("reduction executions + inline steps = %d in place, %d reduction executions at budget 0 (%+.2f %%)",
			steps, a.ReductionTasks, residual(steps, a.ReductionTasks))
		i := 0
		if engine == dgr.EngineCompiled {
			i = 1
		}
		budget0[i] += a.ReductionTasks
		inPlace[i] += steps
	})
	for i, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		r := residual(inPlace[i], budget0[i])
		t.Logf("%s: %d steps in place against %d at budget 0 (%+.2f %%)", engine, inPlace[i], budget0[i], r)
		if r < -1 || r > 1 {
			t.Errorf("%s: reduction executions + inline steps differ from budget 0's reduction executions by %+.2f %%, want within 1 %%", engine, r)
		}
	}
}

// residual is how far got is from want, in per cent of want.
func residual(got, want int64) float64 { return 100 * float64(got-want) / float64(want) }
