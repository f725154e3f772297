package dgr

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"dgr/internal/workload"
)

// regenCounters rewrites testdata/counters.golden from this build
// (go test -run TestCountersExact -regen-counters).
var regenCounters = flag.Bool("regen-counters", false, "regenerate testdata/counters.golden")

const countersGolden = "testdata/counters.golden"

// TestCountersExact pins every non-zero counter of Stats() after one Eval of
// each workload.Programs entry on a fresh seeded machine: both engines, 1 and
// 4 PEs, seed 1, at the default GCInterval and at 500, where every program
// runs collector cycles. A seeded machine's schedule is a function of its
// seed, so the counts are exact, and a change in where a counter is added
// (per event or tallied per execution) must leave every one of them where it
// was. testdata/counters.golden was captured before the reduction engine
// began to tally Rewrites and Allocations per execution.
func TestCountersExact(t *testing.T) {
	names := make([]string, 0, len(workload.Programs))
	for name := range workload.Programs {
		names = append(names, name)
	}
	slices.Sort(names)
	var got []string
	for _, name := range names {
		p := workload.Programs[name]
		for _, engine := range []string{EngineInterp, EngineCompiled} {
			for _, pes := range []int{1, 4} {
				for _, gc := range []int{0, 500} {
					m := New(Options{PEs: pes, Seed: 1, Engine: engine, GCInterval: gc})
					v, err := m.Eval(p.Src)
					cell := fmt.Sprintf("%s/%s/pes=%d/gc=%d", name, engine, pes, gc)
					if err != nil || v.Int != p.Want {
						t.Errorf("%s: %v, %v; want %d", cell, v, err, p.Want)
					}
					got = append(got, cell+":"+statsLine(m.Stats()))
					m.Close()
				}
			}
		}
	}
	if *regenCounters {
		if err := os.WriteFile(countersGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s: %d runs", countersGolden, len(got))
	}
	golden, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("counters changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
