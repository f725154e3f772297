package dgr_test

import (
	"fmt"
	"slices"
	"testing"

	"dgr"
	"dgr/internal/check"
	"dgr/internal/task"
	"dgr/internal/workload"
)

// inlineRun is what one seeded evaluation of a corpus program did.
type inlineRun struct {
	value string
	execs map[task.Kind]int64 // reduction executions by kind, from the schedule
	stats dgr.Stats
}

// runInline evaluates src, spawning every continuation as a Reduce task
// unless inPlace.
func runInline(t *testing.T, engine string, seed int64, inPlace bool, src string) inlineRun {
	t.Helper()
	m := dgr.New(dgr.Options{PEs: 4, Seed: seed, Engine: engine, RecordSchedule: true})
	defer m.Close()
	if !inPlace {
		dgr.SetInlineBudget(m, 0)
	}
	v, err := m.Eval(src)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	m.Pump(0) // the tasks still queued when the value came
	evs, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	r := inlineRun{value: v.String(), execs: map[task.Kind]int64{}, stats: m.Stats()}
	for _, e := range evs {
		if e.Ev == check.EvExec && e.Kind.IsReduction() {
			r.execs[e.Kind]++
		}
	}
	return r
}

// TestInlineStepsAreReduceTasks: continuing a reduction in place changes
// where a step runs, not what the machine does. Over the workload corpus,
// both engines and three seeds, a machine that spawns every continuation as
// a Reduce task (budget 0) and one that runs it in place (the default) agree
// on the value, the Demand executions, the rewrites, the allocations and the
// collector cycles; and the Reduce tasks of the first are the inline steps
// plus the Reduce tasks of the second. Both run to quiescence, so the tasks
// still queued when the value came count in both.
//
// They agree on the Result executions too, unless a collector cycle expunged
// irrelevant tasks in either run: which of them are still queued when a
// cycle looks, and so how many Results never run, is the schedule's to say
// (parfib, whose par discards a computed operand).
func TestInlineStepsAreReduceTasks(t *testing.T) {
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
					tasks := runInline(t, engine, seed, false, p.Src)
					inline := runInline(t, engine, seed, true, p.Src)
					if want := fmt.Sprint(p.Want); tasks.value != want || inline.value != want {
						t.Fatalf("value = %s at budget 0 and %s in place, want %s", tasks.value, inline.value, want)
					}
					if tasks.stats.InlineSteps != 0 {
						t.Errorf("budget 0 ran %d steps in place", tasks.stats.InlineSteps)
					}
					a, b := tasks.stats, inline.stats
					kinds := []task.Kind{task.Demand, task.Result}
					if a.Expunged > 0 || b.Expunged > 0 {
						t.Logf("%d and %d irrelevant tasks expunged: %d and %d result executions",
							a.Expunged, b.Expunged, tasks.execs[task.Result], inline.execs[task.Result])
						kinds = kinds[:1]
					}
					for _, k := range kinds {
						if a, b := tasks.execs[k], inline.execs[k]; a != b {
							t.Errorf("%s executions = %d at budget 0, %d in place", k, a, b)
						}
					}
					for _, c := range []struct {
						name string
						a, b int64
					}{
						{"Rewrites", a.Rewrites, b.Rewrites},
						{"Allocations", a.Allocations, b.Allocations},
						{"Cycles", a.Cycles, b.Cycles},
						{"Reduce tasks", tasks.execs[task.Reduce], b.InlineSteps + inline.execs[task.Reduce]},
					} {
						if c.a != c.b {
							t.Errorf("%s = %d at budget 0, %d in place", c.name, c.a, c.b)
						}
					}
					if b.InlineSteps == 0 {
						t.Error("no step ran in place")
					}
				})
			}
		}
	}
}
