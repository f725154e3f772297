package exp

import (
	"fmt"
	"sort"
	"time"

	"dgr"
	"dgr/internal/workload"
)

func init() {
	register(Experiment{ID: "programs", Title: "end-to-end corpus runs (reduce + concurrent GC)", Run: runPrograms})
}

// runPrograms evaluates the whole program corpus on a deterministic
// machine with the collector interleaved, reporting the distributed
// execution profile of each — the closest thing to an application-level
// evaluation the paper's model admits.
func runPrograms(cfg Config) (*Table, error) {
	peList := []int{1, 4}
	names := make([]string, 0, len(workload.Programs))
	for n := range workload.Programs {
		names = append(names, n)
	}
	sort.Strings(names)
	if cfg.Quick {
		names = []string{"fac", "sumsquares"}
	}

	t := &Table{
		ID:      "programs",
		Title:   "corpus programs: tasks, rewrites, GC work, message traffic",
		Columns: []string{"program", "PEs", "value", "time", "red. tasks", "rewrites", "GC cycles", "reclaimed", "remote msgs"},
	}
	for _, name := range names {
		p := workload.Programs[name]
		for _, pes := range peList {
			m := dgr.New(dgr.Options{
				PEs:  pes,
				Seed: cfg.Seed,
			})
			start := time.Now()
			v, err := m.Eval(p.Src)
			dur := time.Since(start)
			s := m.Stats()
			m.Close()
			if err != nil {
				return t, fmt.Errorf("programs: %s on %d PEs: %v", name, pes, err)
			}
			if v.Int != p.Want {
				return t, fmt.Errorf("programs: %s = %d, want %d", name, v.Int, p.Want)
			}
			t.AddRow(name, pes, v.Int, dur.Round(time.Millisecond),
				s.ReductionTasks, s.Rewrites, s.Cycles, s.Reclaimed, s.RemoteMessages)
		}
	}
	t.Note("deterministic machine, seed %d; identical rewrite counts across PE counts show scheduling-independence of the reduction", cfg.Seed)
	return t, nil
}
