package exp

import (
	"fmt"
	"time"

	"dgr"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/refcount"
	"dgr/internal/sched"
	"dgr/internal/task"
	"dgr/internal/workload"
)

func init() {
	register(Experiment{ID: "refcount", Title: "marking vs reference counting (cyclic garbage, message overhead)", Run: runRefcount})
	register(Experiment{ID: "irrelevant", Title: "§3.2: irrelevant-task expungement on runaway speculation", Run: runIrrelevant})
	register(Experiment{ID: "priority", Title: "dynamic task reprioritization across GC cycles", Run: runPriority})
	register(Experiment{ID: "mtfreq", Title: "§6: M_T frequency ablation (deadlock latency vs overhead)", Run: runMTFreq})
}

// buildRCWorkload creates acyclic chains and cycles hanging off a root,
// then detaches all of them. Returns the store, root, and the detach
// actions' edge list for RC barriers.
func buildRCWorkload(parts, chains, chainLen, cycles, cycleLen int) (
	*graph.Store, *graph.Vertex, [][2]*graph.Vertex, int, int) {
	store := graph.NewStore(graph.Config{Partitions: parts})
	b := graph.NewBuilder(store, -1)
	root := b.Hole()
	root.Lock()
	root.Kind = graph.KindApply
	root.Unlock()

	wire := func(p, c *graph.Vertex) {
		p.Lock()
		p.AddArg(c.ID, graph.ReqNone)
		p.Unlock()
	}
	var detach [][2]*graph.Vertex
	acyclicCount := 0
	for i := 0; i < chains; i++ {
		head := b.Hole()
		head.Lock()
		head.Kind = graph.KindApply
		head.Unlock()
		wire(root, head)
		prev := head
		for j := 1; j < chainLen; j++ {
			n := b.Hole()
			n.Lock()
			n.Kind = graph.KindApply
			n.Unlock()
			wire(prev, n)
			prev = n
		}
		detach = append(detach, [2]*graph.Vertex{root, head})
		acyclicCount += chainLen
	}
	cyclicCount := 0
	for i := 0; i < cycles; i++ {
		var ring []*graph.Vertex
		for j := 0; j < cycleLen; j++ {
			n := b.Hole()
			n.Lock()
			n.Kind = graph.KindApply
			n.Unlock()
			ring = append(ring, n)
		}
		for j := range ring {
			wire(ring[j], ring[(j+1)%len(ring)])
		}
		wire(root, ring[0])
		detach = append(detach, [2]*graph.Vertex{root, ring[0]})
		cyclicCount += cycleLen
	}
	return store, root, detach, acyclicCount, cyclicCount
}

func runRefcount(cfg Config) (*Table, error) {
	chains, chainLen, cycles, cycleLen := 50, 20, 50, 10
	if cfg.Quick {
		chains, cycles = 10, 10
	}
	t := &Table{
		ID:      "refcount",
		Title:   "reclamation after detaching chains and cycles",
		Columns: []string{"collector", "acyclic reclaimed", "cyclic reclaimed", "messages", "remote msgs"},
	}

	acyclicN, cyclicN := 0, 0

	// Half the chains stay attached (live structure both collectors must
	// preserve — and that marking must trace), half are detached together
	// with every cycle.
	partialDetach := func(detach [][2]*graph.Vertex) [][2]*graph.Vertex {
		kept := detach[:0]
		for i, d := range detach {
			if i < chains && i%2 == 0 {
				continue // live chain
			}
			kept = append(kept, d)
		}
		return kept
	}
	liveChains := (chains + 1) / 2
	detachedAcyclic := func() int { return (chains - liveChains) * chainLen }

	// Reference counting.
	{
		store, root, detach, _, _ := buildRCWorkload(4, chains, chainLen, cycles, cycleLen)
		acyclicN, cyclicN = detachedAcyclic(), cycles*cycleLen
		rc := refcount.New(store, nil)
		rc.Root(root.ID)
		rc.InitFromGraph()
		for _, d := range partialDetach(detach) {
			d[0].Lock()
			d[0].RemoveArg(d[1].ID)
			d[0].Unlock()
			rc.DropRef(d[0].ID, d[1].ID)
		}
		freed := rc.Process()
		msgs, remote, _ := rc.Stats()
		cyclicFreed := freed - min(freed, acyclicN)
		t.AddRow("reference counting", min(freed, acyclicN), cyclicFreed, msgs, remote)
		if cyclicFreed != 0 {
			return t, fmt.Errorf("refcount reclaimed cyclic garbage?!")
		}
	}

	// Concurrent marking.
	{
		store, root, detach, _, _ := buildRCWorkload(4, chains, chainLen, cycles, cycleLen)
		counters := &metrics.Counters{}
		mach := sched.New(sched.Config{
			PEs: 4, Mode: sched.Deterministic, Seed: cfg.Seed,
			PartOf: store.PartitionOf, Counters: counters,
		})
		marker := core.NewMarker(store, mach, counters)
		mach.SetHandler(core.NewDispatcher(marker, nil))
		mut := core.NewMutator(store, marker, mach, counters)
		for _, d := range partialDetach(detach) {
			mut.DeleteReference(d[0], d[1])
		}
		col := core.NewCollector(store, marker, mach, counters, core.CollectorConfig{Root: root.ID})
		rep := col.RunCycle()
		reclaimedCyclic := min(rep.Reclaimed, cyclicN)
		reclaimedAcyclic := rep.Reclaimed - reclaimedCyclic
		s := counters.Snapshot()
		t.AddRow("concurrent marking",
			reclaimedAcyclic, reclaimedCyclic,
			s.LocalMessages+s.RemoteMessages, s.RemoteMessages)
		if rep.Reclaimed != acyclicN+cyclicN {
			return t, fmt.Errorf("marking reclaimed %d, want %d", rep.Reclaimed, acyclicN+cyclicN)
		}
	}
	t.Note("RC pays one message per pointer mutation and leaks every cycle; marking reclaims all garbage with traffic proportional to live+garbage scan")
	return t, nil
}

func runIrrelevant(cfg Config) (*Table, error) {
	src := "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 8"
	budgets := []struct {
		name       string
		gcInterval int
		gc         bool
	}{
		{"no GC (runaway)", 4000, false},
		{"GC every 4000 steps", 4000, true},
		{"GC every 1000 steps", 1000, true},
	}
	t := &Table{
		ID:      "irrelevant",
		Title:   "speculative fac 8: wasted work with/without expungement",
		Columns: []string{"mode", "value", "total tasks", "expunged", "reclaimed", "drained"},
	}
	for _, b := range budgets {
		m := dgr.New(dgr.Options{
			PEs: 4, Seed: cfg.Seed, SpeculativeIf: true,
			GCInterval: b.gcInterval,
		})
		root, err := m.Compile(src)
		if err != nil {
			m.Close()
			return nil, err
		}
		var got dgr.Value
		if b.gc {
			got, err = m.EvalNode(root)
			if err != nil {
				m.Close()
				return t, fmt.Errorf("irrelevant (%s): %v", b.name, err)
			}
			// Drain leftover speculation with further cycles.
			drained := true
			for i := 0; i < 200 && !quiesced(m); i++ {
				m.RunGC()
				pump(m, 4000)
			}
			drained = quiesced(m)
			s := m.Stats()
			t.AddRow(b.name, got.Int, s.ReductionTasks, s.Expunged, s.Reclaimed, drained)
		} else {
			// No GC: pump a fixed budget; the speculation never drains.
			v, ok := evalNoGC(m, root, 300_000)
			s := m.Stats()
			val := "-"
			if ok {
				val = fmt.Sprint(v.Int)
			}
			t.AddRow(b.name, val, s.ReductionTasks, s.Expunged, s.Reclaimed, quiesced(m))
		}
		m.Close()
	}
	t.Note("without expunging, the dereferenced else-branch recurses on n-1 forever (fac(-1), fac(-2), ...)")
	return t, nil
}

func runPriority(cfg Config) (*Table, error) {
	// A long eager speculation whose value later becomes vital: the
	// restructure phase upgrades the queued demand tasks.
	trials := 6
	if cfg.Quick {
		trials = 2
	}
	t := &Table{
		ID:      "priority",
		Title:   "eager→vital upgrades via restructuring",
		Columns: []string{"seed", "value", "reprioritized", "cycles", "coop marks"},
	}
	src := `let slow n = if n == 0 then 7 else slow (n - 1)
	        in spec (slow 200) 0 + slow 220`
	for seed := int64(0); seed < int64(trials); seed++ {
		m := dgr.New(dgr.Options{
			PEs: 4, Seed: cfg.Seed + seed, SpeculativeIf: true,
			GCInterval: 500,
		})
		v, err := m.Eval(src)
		if err != nil {
			m.Close()
			return t, fmt.Errorf("priority seed %d: %v", seed, err)
		}
		s := m.Stats()
		t.AddRow(seed, v.Int, s.Reprioritized, s.Cycles, s.CoopMarks)
		m.Close()
		if v.Int != 7 {
			return t, fmt.Errorf("priority: value %d, want 7", v.Int)
		}
	}
	return t, nil
}

func runMTFreq(cfg Config) (*Table, error) {
	ks := []int{1, 2, 4, 8}
	t := &Table{
		ID:      "mtfreq",
		Title:   "deadlock-detection latency and marking overhead vs M_T cadence",
		Columns: []string{"MTEvery", "cycles to detect", "M_T runs", "mark visits", "wall time"},
	}
	for _, k := range ks {
		counters2 := &metrics.Counters{}
		sc2 := workload.Fig31(2)
		mach := sched.New(sched.Config{
			PEs: 2, Mode: sched.Deterministic, Seed: cfg.Seed,
			PartOf: sc2.Store.PartitionOf, Counters: counters2,
		})
		marker := core.NewMarker(sc2.Store, mach, counters2)
		mach.SetHandler(core.NewDispatcher(marker, sched.HandlerFunc(func(_ int, tk task.Task) {
			if tk.Kind == task.Demand {
				mach.Spawn(tk)
			}
		})))
		for _, tk := range sc2.Tasks {
			mach.Spawn(tk)
		}
		col2 := core.NewCollector(sc2.Store, marker, mach, counters2, core.CollectorConfig{
			Root: sc2.Root, MTEvery: k,
		})
		start := time.Now()
		cycles := 0
		for cycles < 4*k+4 {
			rep := col2.RunCycle()
			cycles++
			if len(rep.Deadlocked) > 0 {
				break
			}
		}
		dur := time.Since(start)
		s := counters2.Snapshot()
		t.AddRow(k, cycles, s.MTRuns, s.MarkVisits, dur)
		if cycles != k {
			return t, fmt.Errorf("mtfreq: detection at cycle %d with MTEvery=%d", cycles, k)
		}
	}
	t.Note("detection waits for the first cycle that runs M_T; marking overhead per cycle shrinks as k grows")
	return t, nil
}

// pump runs up to n deterministic steps without GC.
func pump(m *dgr.Machine, n int) { m.Pump(n) }

// quiesced reports whether the machine has no queued work.
func quiesced(m *dgr.Machine) bool { return m.Quiescent() }

// evalNoGC pumps a fixed step budget with the collector disabled and
// reports whether a value arrived.
func evalNoGC(m *dgr.Machine, root dgr.NodeID, steps int) (dgr.Value, bool) {
	ch := m.DemandNode(root)
	for steps > 0 {
		chunk := min(steps, 4000)
		m.Pump(chunk)
		steps -= chunk
		select {
		case v := <-ch:
			return v, true
		default:
		}
	}
	return dgr.Value{}, false
}
