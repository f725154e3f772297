package dgr_test

// The experiments of EXPERIMENTS.md run through `go run ./cmd/dgr-bench`
// (and, in Quick mode, internal/exp's TestAllExperimentsQuick); the reduce,
// reduce-pes and gc-cycle measurements are rows of `dgr-bench -json`. What is
// left here is the one measurement neither has.

import (
	"testing"

	"dgr"
	"dgr/internal/workload"
)

// BenchmarkCompile measures the front end alone.
func BenchmarkCompile(b *testing.B) {
	p := workload.Programs["primes"]
	for i := 0; i < b.N; i++ {
		m := dgr.New(dgr.Options{PEs: 1, Capacity: 1 << 14})
		if _, err := m.Compile(p.Src); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
