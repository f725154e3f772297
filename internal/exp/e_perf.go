package exp

import (
	"fmt"
	"math/rand"
	"time"

	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/stopworld"
	"dgr/internal/task"
	"dgr/internal/workload"
)

func init() {
	register(Experiment{ID: "scale", Title: "marking throughput vs number of PEs (decentralization claim)", Run: runScale})
	register(Experiment{ID: "pause", Title: "concurrent marking vs stop-the-world pauses (minimal-interference claim)", Run: runPause})
}

// buildForMarking reconstructs the same random graph (same seed) in a
// fresh store for each machine configuration.
func buildForMarking(seed int64, pes, n int) (*graph.Store, graph.VertexID, error) {
	rng := rand.New(rand.NewSource(seed))
	store := graph.NewStore(graph.Config{Partitions: pes})
	root, _, err := workload.RandomGraph(rng, store, n, 3.0)
	return store, root, err
}

func runScale(cfg Config) (*Table, error) {
	n := 300_000
	reps := 3
	if cfg.Quick {
		n, reps = 20_000, 1
	}
	peList := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:      "scale",
		Title:   fmt.Sprintf("one M_R cycle over a %d-vertex graph, parallel PEs", n),
		Columns: []string{"PEs", "best cycle time", "mark visits", "mark tasks", "visits/sec", "speedup vs 1 PE"},
	}
	var base float64
	for _, pes := range peList {
		store, root, err := buildForMarking(cfg.Seed, pes, n)
		if err != nil {
			return nil, err
		}
		// No shared counters on the per-task path: cross-PE atomic increments
		// on adjacent cache lines would measure false sharing, not the
		// algorithm. Mark tasks are counted per PE in padded slots instead;
		// the marker's own counters see only MarkVisits, added once per wave.
		mach := sched.New(sched.Config{
			PEs: pes, Mode: sched.Parallel, PartOf: store.PartitionOf,
		})
		counters := &metrics.Counters{}
		marker := core.NewMarker(store, mach, counters)
		type padded struct {
			n int64
			_ [7]int64
		}
		perPE := make([]padded, pes)
		dispatch := core.NewDispatcher(marker, nil)
		mach.SetHandler(sched.HandlerFunc(func(pe int, tk task.Task) {
			if tk.Kind == task.Mark {
				perPE[store.PartitionOf(tk.Dst)].n++
			}
			dispatch.Handle(pe, tk)
		}))
		mach.Start()

		best := time.Duration(1<<62 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			done := marker.StartCycle(graph.CtxR, []core.Root{{ID: root, Prior: graph.PriorVital}})
			<-done
			if d := time.Since(start); d < best {
				best = d
			}
		}
		mach.Stop()

		var tasks int64
		for i := range perPE {
			tasks += perPE[i].n
		}
		tasks /= int64(reps)
		visits := counters.MarkVisits.Load() / int64(reps)
		rate := float64(visits) / best.Seconds()
		if pes == 1 {
			base = best.Seconds()
		}
		t.AddRow(pes, best, visits, tasks, fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.2fx", base/best.Seconds()))
	}
	t.Note("decentralized marking: no shared stack; work spreads over per-PE task pools")
	t.Note("a mark is a task only where its arc crosses a partition (vertex i is allocated on partition i mod PEs here, so (PEs-1)/PEs of a random graph's arcs do); arcs inside a partition are walked inline by the PE that popped the task")
	return t, nil
}

// runPause measures what the mutator experiences during collection. A
// dedicated mutator goroutine continuously performs real graph mutations
// (cooperating expand-node splices on the live region) and records the
// longest gap between two consecutive operations:
//
//   - stop-the-world: the mutator must hold still for the entire
//     mark+sweep, so its maximum gap is the full collection pause;
//   - concurrent marking: the cycle runs on the PEs while the mutator
//     keeps mutating; it only ever waits for per-vertex locks, so its
//     maximum gap stays microscopic regardless of heap size.
func runPause(cfg Config) (*Table, error) {
	sizes := []int{10_000, 50_000, 100_000}
	if cfg.Quick {
		sizes = []int{5_000}
	}
	t := &Table{
		ID:      "pause",
		Title:   "max mutator pause: stop-the-world collect vs concurrent cycle",
		Columns: []string{"|V|", "STW pause (= mutator gap)", "concurrent cycle time", "mutator max gap", "mutator ops during cycle"},
	}
	for _, n := range sizes {
		// Stop-the-world baseline: the pause IS the mutator gap.
		store, root, err := buildForMarking(cfg.Seed, 4, n)
		if err != nil {
			return nil, err
		}
		res := stopworld.Collect(store, root)

		// Concurrent: same heap, parallel PEs marking while a mutator
		// goroutine splices fresh vertices under the root.
		store2, root2, err := buildForMarking(cfg.Seed, 4, n)
		if err != nil {
			return nil, err
		}
		counters := &metrics.Counters{}
		mach := sched.New(sched.Config{
			PEs: 4, Mode: sched.Parallel, PartOf: store2.PartitionOf, Counters: counters,
		})
		marker := core.NewMarker(store2, mach, counters)
		mach.SetHandler(core.NewDispatcher(marker, nil))
		mut := core.NewMutator(store2, marker, mach, counters)
		mach.Start()

		// The mutator works under a dedicated child of the root. (Splicing
		// under the root itself while it is transient would re-spawn marks
		// on its entire fanout per splice, letting the mutator outrun the
		// marker indefinitely — a useful discovery about mutation hot
		// spots, noted in DESIGN.md, but not what this experiment
		// measures.)
		rootV := store2.Vertex(root2)
		mutZone, err := mut.Alloc(0, graph.KindApply, 0)
		if err != nil {
			return nil, err
		}
		mut.ExpandNode(rootV, []*graph.Vertex{mutZone}, func() {
			rootV.AddArg(mutZone.ID, graph.ReqNone)
		})
		stopMut := make(chan struct{})
		mutDone := make(chan struct{})
		var ops int64
		var maxGap time.Duration
		go func() {
			defer close(mutDone)
			last := time.Now()
			for {
				select {
				case <-stopMut:
					return
				default:
				}
				n1, err := mut.Alloc(0, graph.KindInt, ops)
				if err != nil {
					return
				}
				mut.ExpandNode(mutZone, []*graph.Vertex{n1}, func() {
					mutZone.AddArg(n1.ID, graph.ReqNone)
					if args := mutZone.Args(); len(args) > 8 {
						// keep the mutation zone's fanout bounded
						mutZone.RemoveArg(args[0])
					}
				})
				now := time.Now()
				if gap := now.Sub(last); gap > maxGap {
					maxGap = gap
				}
				last = now
				ops++
				// Pace the mutator so the heap does not balloon while the
				// cycle runs; the gap measurement subtracts nothing — a
				// paced mutator blocked by a STW collector would still
				// observe the full pause.
				time.Sleep(100 * time.Microsecond)
				last = time.Now()
			}
		}()

		done := marker.StartCycle(graph.CtxR, []core.Root{{ID: root2, Prior: graph.PriorVital}})
		start := time.Now()
		<-done
		cycleDur := time.Since(start)
		close(stopMut)
		<-mutDone
		mach.Stop()

		t.AddRow(n, res.Pause, cycleDur, maxGap, ops)
		if maxGap > res.Pause && n >= 50_000 {
			return t, fmt.Errorf("pause: concurrent mutator gap %v exceeds STW pause %v", maxGap, res.Pause)
		}
	}
	t.Note("the concurrent mutator's worst gap is per-vertex lock contention + scheduling noise, independent of heap size; the STW pause grows linearly with the heap")
	return t, nil
}
