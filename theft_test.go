package dgr

import (
	"slices"
	"testing"
	"time"

	"dgr/internal/workload"
)

// maxTheftRatio bounds the tasks a 2-PE parallel machine executes for interp
// fib 16 as a multiple of a 1-PE machine's (medians of 5). Over 45 runs on a
// shared 2-vCPU host the ratio read 1.05–1.29, five of them under -race; the
// bound leaves 1.5× the highest. With the in-place rules asking the
// executing PE's partition instead of the task's, it read 9.35–11.26 over 20
// runs.
const maxTheftRatio = 2.0

// TestTheftDoesNotMultiplyTasks checks that stealing moves work without
// making more of it: a stolen task makes the in-place choices it would make
// at home (DESIGN §8, "A local demand or result runs in place"), so its
// demands and results run in the thief's execution instead of going back to
// the victim's pool as tasks to be stolen again.
func TestTheftDoesNotMultiplyTasks(t *testing.T) {
	p := workload.Programs["fib"]
	tasks := func(pes int) (median, stolen int64) {
		var runs, steals []int64
		for range 5 {
			m := New(Options{PEs: pes, Parallel: true, Timeout: time.Minute})
			v, err := m.Eval(p.Src)
			st := m.Stats()
			m.Close()
			if err != nil || v.Int != p.Want {
				t.Fatalf("pes=%d: fib = %v, %v; want %d", pes, v, err, p.Want)
			}
			runs = append(runs, st.TasksExecuted)
			steals = append(steals, st.StolenTasks)
		}
		slices.Sort(runs)
		slices.Sort(steals)
		return runs[len(runs)/2], steals[len(steals)/2]
	}
	one, _ := tasks(1)
	two, stolen := tasks(2)
	ratio := float64(two) / float64(one)
	t.Logf("census: parallel interp fib 16 executes %.2f× the tasks at pes=2 as at pes=1 (%d against %d, %d stolen; medians of 5; bound %.1f×)",
		ratio, two, one, stolen, maxTheftRatio)
	if ratio > maxTheftRatio {
		t.Fatalf("a 2-PE machine executes %d tasks, %.2f× the 1-PE machine's %d: theft multiplies work (bound %.1f×)",
			two, ratio, one, maxTheftRatio)
	}
}
