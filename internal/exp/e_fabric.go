package exp

import (
	"fmt"
	"sync"
	"time"

	"dgr"
	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/task"
	"dgr/internal/workload"
)

func init() {
	register(Experiment{ID: "fabric", Title: "inter-PE fabric: batching throughput on a remote-spawn-heavy workload", Run: runFabricBatch})
	register(Experiment{ID: "fabdrop", Title: "inter-PE fabric: correctness and message overhead under injected loss", Run: runFabricDrop})
}

// runFabricBatch floods the fabric with remote task messages from every PE
// at once and measures end-to-end delivery throughput as the batch size
// grows, against a direct-dispatch baseline. Batching must beat
// one-task-per-message: the per-message overhead (lock handshake, arrival
// scheduling, ack bookkeeping) is paid per batch, not per task.
func runFabricBatch(cfg Config) (*Table, error) {
	const pes = 4
	n := 200_000
	if cfg.Quick {
		n = 20_000
	}
	counters := &metrics.Counters{}

	// measure returns msgs/sec for one delivery regime. batch==0 means
	// direct dispatch (no fabric at all).
	measure := func(batch int) (rate float64, delta metrics.Snapshot) {
		var delivered sync.WaitGroup
		delivered.Add(n)
		sink := func(pe int, ts []task.Task) {
			for range ts {
				delivered.Done()
			}
		}
		before := counters.Snapshot()
		var f *fabric.Fabric
		if batch > 0 {
			f = fabric.New(fabric.Config{
				PEs: pes, Parallel: true, Seed: cfg.Seed,
				Params: fabric.Params{
					BatchSize: batch, FlushEvery: 200 * time.Microsecond,
					LinkLatency: 20 * time.Microsecond,
				},
				Counters: counters,
			})
			f.SetDeliver(sink)
			f.Start()
		}
		start := time.Now()
		var wg sync.WaitGroup
		for pe := 0; pe < pes; pe++ {
			wg.Add(1)
			go func(pe int) {
				defer wg.Done()
				for i := 0; i < n/pes; i++ {
					t := task.Task{Kind: task.Demand, Src: graph.VertexID(pe + 1),
						Dst: graph.VertexID(i + 1), Req: graph.ReqVital}
					to := (pe + 1 + i%(pes-1)) % pes
					if f != nil {
						f.Enqueue(pe, to, t)
					} else {
						sink(to, []task.Task{t})
					}
				}
			}(pe)
		}
		wg.Wait()
		if f != nil {
			delivered.Wait()
			f.Close()
		}
		elapsed := time.Since(start)
		return float64(n) / elapsed.Seconds(), counters.Snapshot().Sub(before)
	}

	tbl := &Table{
		ID:      "fabric",
		Title:   "delivery throughput vs batch size (4 PEs, all-to-all remote spawns)",
		Columns: []string{"mode", "msgs", "batches", "msgs/sec", "vs batch=1"},
	}
	directRate, _ := measure(0)
	tbl.AddRow("direct", n, "-", fmt.Sprintf("%.0f", directRate), "-")

	var unbatched, best float64
	for _, batch := range []int{1, 8, 64} {
		rate, d := measure(batch)
		if d.FabricDelivered != int64(n) {
			return tbl, fmt.Errorf("batch=%d: delivered %d of %d", batch, d.FabricDelivered, n)
		}
		if batch == 1 {
			unbatched = rate
		}
		if rate > best {
			best = rate
		}
		tbl.AddRow(fmt.Sprintf("fabric b=%d", batch), n, d.FabricBatches,
			fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2fx", rate/unbatched))
	}
	tbl.Note("batching amortizes per-message link locking, arrival scheduling and ack bookkeeping")
	if best <= unbatched {
		return tbl, fmt.Errorf("batching did not improve throughput: best=%.0f unbatched=%.0f", best, unbatched)
	}
	return tbl, nil
}

// runFabricDrop evaluates remote-heavy corpus programs over a fabric with
// increasing injected loss. Results must be bit-identical to the reference
// value at every drop rate — the at-least-once retry plus dedup hides the
// loss — while the message overhead (retries, duplicates) grows with it.
func runFabricDrop(cfg Config) (*Table, error) {
	programs := []string{"fib", "tak"}
	if cfg.Quick {
		programs = []string{"fib"}
	}
	tbl := &Table{
		ID:      "fabdrop",
		Title:   "evaluation over a lossy fabric (4 PEs, batch 8)",
		Columns: []string{"program", "drop", "value", "sent", "delivered", "batches", "dropped", "retried", "dup"},
	}
	for _, name := range programs {
		p := workload.Programs[name]
		for _, drop := range []float64{0, 0.05, 0.10} {
			m := dgr.New(dgr.Options{PEs: 4, Seed: cfg.Seed, Fabric: &fabric.Params{
				BatchSize: 8, FlushEvery: 20 * time.Microsecond,
				LinkLatency: 5 * time.Microsecond, Jitter: 3 * time.Microsecond,
				DropRate: drop, ReorderRate: 0.05,
			}})
			v, err := m.Eval(p.Src)
			if err != nil {
				m.Close()
				return tbl, fmt.Errorf("%s at drop=%.2f: %v", name, drop, err)
			}
			if v.Int != p.Want {
				m.Close()
				return tbl, fmt.Errorf("%s at drop=%.2f = %d, want %d", name, drop, v.Int, p.Want)
			}
			s := m.Stats()
			m.Close()
			if s.FabricSent != s.FabricDelivered+s.FabricExpunged {
				return tbl, fmt.Errorf("%s at drop=%.2f: conservation violated (sent=%d delivered=%d expunged=%d)",
					name, drop, s.FabricSent, s.FabricDelivered, s.FabricExpunged)
			}
			tbl.AddRow(name, fmt.Sprintf("%.2f", drop), v.Int,
				s.FabricSent, s.FabricDelivered, s.FabricBatches,
				s.FabricDropped, s.FabricRetries, s.FabricDuplicates)
		}
	}
	tbl.Note("identical values at every drop rate: loss is invisible above the transport")
	return tbl, nil
}
