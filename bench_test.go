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
	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/lang"
	"dgr/internal/workload"
)

// BenchmarkCompile measures the front end alone, per engine: parsing the
// primes program and compiling it into a store, without building or closing
// a machine around it. A fresh store every 256 compiles keeps the heap
// small; making it is not timed and its allocations are not counted.
func BenchmarkCompile(b *testing.B) {
	src := workload.Programs["primes"].Src
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			var store *graph.Store
			var prog *gm.Program
			for i := 0; i < b.N; i++ {
				if i%256 == 0 {
					b.StopTimer()
					store = graph.NewStore(graph.Config{Partitions: 4, Serial: true})
					prog = gm.NewProgram()
					b.StartTimer()
				}
				var err error
				if engine == dgr.EngineCompiled {
					_, err = lang.CompileSupers(store, prog, src)
				} else {
					_, err = lang.CompileString(store, src)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
