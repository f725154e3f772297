package bench

import (
	"slices"
	"testing"
)

// TestQuickRunRows: a quick Run emits the parallel PE sweep on both engines
// and the serving rows, in suite order, and nothing else — seeded
// evaluations, the engine A/B and collector cycles are the repository
// benchmark's workloads, and the instrumentation overhead is -obscheck's.
func TestQuickRunRows(t *testing.T) {
	rep, err := Run(true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rep.Results {
		got = append(got, r.Name)
	}
	want := []string{
		"reduce-pes/fib/pes=1", "reduce-pes/fib/pes=2", "reduce-pes/fib/pes=4", "reduce-pes/fib/pes=8",
		"reduce_compiled-pes/fib/pes=1", "reduce_compiled-pes/fib/pes=2",
		"reduce_compiled-pes/fib/pes=4", "reduce_compiled-pes/fib/pes=8",
		"serve_throughput/cold", "serve_throughput/warm",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rows %q, want %q", got, want)
	}
}
