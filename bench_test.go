package dgr_test

// The experiments of EXPERIMENTS.md, the parallel PE sweep and the
// instrumentation-overhead gate among them, run through
// `go run ./cmd/dgr-run -exp all` (and, in Quick mode, internal/exp's
// TestAllExperimentsQuick); seeded evaluations on both engines and collector
// cycles are workloads of the repository benchmark (benchmark/). What is
// left here is the one measurement none has.

import (
	"testing"

	"dgr"
	"dgr/internal/workload"
)

// BenchmarkCompile measures the front end alone.
func BenchmarkCompile(b *testing.B) {
	p := workload.Programs["primes"]
	for i := 0; i < b.N; i++ {
		m := dgr.New(dgr.Options{PEs: 1})
		if _, err := m.Compile(p.Src); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
