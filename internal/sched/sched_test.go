package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/task"
)

// partMod returns a PartOf function mapping vertex id → id % n.
func partMod(n int) func(graph.VertexID) int {
	return func(id graph.VertexID) int { return int(id) % n }
}

func TestDeterministicStepExecutesAll(t *testing.T) {
	m := New(Config{PEs: 4, Mode: Deterministic, Seed: 1, PartOf: partMod(4)})
	var executed []graph.VertexID
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		executed = append(executed, tk.Dst)
	}))
	for i := 1; i <= 20; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	steps, quiesced := m.RunToQuiescence(0)
	if !quiesced {
		t.Fatal("did not quiesce")
	}
	if steps != 20 || len(executed) != 20 {
		t.Fatalf("steps=%d executed=%d, want 20", steps, len(executed))
	}
	if m.Inflight() != 0 {
		t.Fatalf("inflight = %d", m.Inflight())
	}
	if !m.Step() {
		// quiescent machine: Step returns false
	} else {
		t.Fatal("Step on quiescent machine executed something")
	}
}

// TestSerialModeFollowsMachine: a deterministic machine's pools and PE
// slots take no lock, and a parallel machine's do. The slot's mode bit sits
// in its lock, whose padding valid and the other flags fill: curSlot is 128
// bytes, two cache lines, the lock, the running task and the pending
// hand-off, 32 bytes each (task.TestTaskSize), 8 bytes of padding, the
// running execution's number, and in its last 32 bytes the PE's execution
// accounting (account.go).
func TestSerialModeFollowsMachine(t *testing.T) {
	if got := unsafe.Sizeof(curSlot{}); got != 128 {
		t.Errorf("Sizeof(curSlot) = %d, want 128", got)
	}
	for _, mode := range []Mode{Deterministic, Parallel} {
		m := New(Config{PEs: 2, Mode: mode, PartOf: partMod(2)})
		want := mode == Deterministic
		for pe := 0; pe < m.PEs(); pe++ {
			if got := m.Pool(pe).Serial(); got != want {
				t.Errorf("mode %d: pool %d serial = %v, want %v", mode, pe, got, want)
			}
			if got := m.current[pe].mu.Serial(); got != want {
				t.Errorf("mode %d: slot %d serial = %v, want %v", mode, pe, got, want)
			}
		}
	}
}

func TestDeterministicReproducible(t *testing.T) {
	run := func(seed int64) []graph.VertexID {
		m := New(Config{PEs: 3, Mode: Deterministic, Seed: seed, Adversarial: true, PartOf: partMod(3)})
		var order []graph.VertexID
		m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
			order = append(order, tk.Dst)
			// Fan out some follow-up work.
			if tk.Dst < 10 {
				m.Spawn(task.Task{Kind: task.Reduce, Src: tk.Dst, Dst: tk.Dst + 10})
			}
		}))
		for i := 1; i <= 9; i++ {
			m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
		}
		m.RunToQuiescence(0)
		return order
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orders diverge at %d: %v vs %v", i, a, b)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("seeds 42 and 43 coincided (unlikely but legal)")
	}
}

func TestSpawnFromHandler(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 7, PartOf: partMod(2)})
	var count int
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		count++
		if tk.Dst < 100 {
			m.Spawn(task.Task{Kind: task.Reduce, Dst: tk.Dst + 1})
		}
	}))
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	steps, ok := m.RunToQuiescence(0)
	if !ok || steps != 100 || count != 100 {
		t.Fatalf("steps=%d count=%d ok=%v, want 100/100/true", steps, count, ok)
	}
}

func TestRunUntil(t *testing.T) {
	m := New(Config{PEs: 1, Mode: Deterministic, Seed: 1, PartOf: partMod(1)})
	var count, inline int
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		count++
		if inline > 0 {
			m.AddSteps(inline)
		}
		m.Spawn(task.Task{Kind: task.Reduce, Dst: 1}) // endless
	}))
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	steps := m.RunUntil(func() bool { return count >= 5 }, 0)
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	steps = m.RunUntil(func() bool { return false }, 10)
	if steps != 10 {
		t.Fatalf("bounded steps = %d, want 10", steps)
	}
	// Steps run in place count toward the bound: four tasks of three steps
	// each, the last of which runs past it.
	inline = 2
	steps = m.RunUntil(func() bool { return false }, 10)
	if steps != 12 || count != 19 {
		t.Fatalf("bounded steps with 2 in place per task = %d in %d tasks, want 12 in 4", steps, count-15)
	}
}

func TestMessageCounters(t *testing.T) {
	var c metrics.Counters
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2), Counters: &c})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))

	// Src 1 (PE 1) → Dst 2 (PE 0): remote.
	m.Spawn(task.Task{Kind: task.Reduce, Src: 1, Dst: 2})
	// Src 2 (PE 0) → Dst 4 (PE 0): local.
	m.Spawn(task.Task{Kind: task.Reduce, Src: 2, Dst: 4})
	// No source: counted local.
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 5})
	m.RunToQuiescence(0)

	s := c.Snapshot()
	if s.RemoteMessages != 1 || s.LocalMessages != 2 {
		t.Fatalf("remote=%d local=%d, want 1/2", s.RemoteMessages, s.LocalMessages)
	}
	if s.TasksExecuted != 3 || s.ReductionTasks != 3 {
		t.Fatalf("executed=%d reduction=%d", s.TasksExecuted, s.ReductionTasks)
	}
}

func TestParallelMode(t *testing.T) {
	var c metrics.Counters
	m := New(Config{PEs: 4, Mode: Parallel, PartOf: partMod(4), Counters: &c})
	var count atomic.Int64
	var mu sync.Mutex
	perPE := map[int]int{}
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		count.Add(1)
		mu.Lock()
		perPE[int(tk.Dst)%4]++
		mu.Unlock()
		if tk.Dst < 100 {
			m.Spawn(task.Task{Kind: task.Reduce, Src: tk.Dst, Dst: tk.Dst + 4})
		}
	}))
	m.Start()
	for i := 1; i <= 4; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	m.WaitQuiescent()
	m.Stop()

	// Chains 1,5,... spawn while Dst<100, so 97/98/99 spawn 101/102/103:
	// 103 executions total.
	if got := count.Load(); got != 103 {
		t.Fatalf("executed %d tasks, want 103", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for pe := 0; pe < 4; pe++ {
		if perPE[pe] == 0 {
			t.Errorf("PE %d executed nothing", pe)
		}
	}
}

// TestWaitExecutions: the wait returns once the step count is reached — by
// steps taken after it began or before — and returns false on stop when the
// machine runs nothing more. Every task here runs one step in place
// (AddSteps), so 1003 executions are 2006 steps.
func TestWaitExecutions(t *testing.T) {
	m := New(Config{PEs: 4, Mode: Parallel, PartOf: partMod(4)})
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		if tk.Dst < 1000 {
			m.Spawn(task.Task{Kind: task.Reduce, Src: tk.Dst, Dst: tk.Dst + 4})
		}
		m.AddSteps(1)
	}))
	m.Start()
	defer m.Stop()
	stop := make(chan struct{})
	reached := make(chan bool)
	go func() { reached <- m.WaitSteps(1000, stop) }()
	for i := 1; i <= 4; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	if !<-reached {
		t.Fatal("WaitSteps(1000) gave up while the machine took 2006 steps")
	}
	m.WaitQuiescent()
	if got := m.Executions(); got != 1003 {
		t.Fatalf("Executions() = %d, want 1003", got)
	}
	if !m.WaitSteps(2006, stop) {
		t.Fatal("WaitSteps(2006) did not count steps taken before it")
	}
	go func() { reached <- m.WaitSteps(2007, stop) }()
	close(stop)
	if <-reached {
		t.Fatal("WaitSteps(2007) reported 2007 steps on a quiescent machine at 2006")
	}
}

func TestParallelStopIdempotent(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Parallel, PartOf: partMod(2)})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	m.Start()
	m.Start() // second start is a no-op
	m.Stop()
	m.Stop() // second stop is a no-op
}

func TestPartOfOutOfRangePanics(t *testing.T) {
	// Regression: out-of-range partitions used to be silently clamped to
	// PE 0, masking broken PartOf functions and misclassifying local vs
	// remote messages. They must panic, naming the vertex and partition.
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1,
		PartOf: func(id graph.VertexID) int { return 99 }})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-range PartOf did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "v5") || !strings.Contains(msg, "99") {
			t.Fatalf("panic message %v does not name vertex and partition", r)
		}
	}()
	m.PartOf(5)
}

func TestNewRequiresPartOf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without PartOf did not panic")
		}
	}()
	New(Config{PEs: 2, Mode: Deterministic, Seed: 1})
}

func TestWaitQuiescentDeterministic(t *testing.T) {
	// Regression: WaitQuiescent used to be a silent no-op in deterministic
	// mode even with tasks queued; it must report actual quiescence.
	m := New(Config{PEs: 1, Mode: Deterministic, Seed: 1, PartOf: partMod(1)})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	if !m.WaitQuiescent() {
		t.Fatal("empty machine reported non-quiescent")
	}
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	if m.WaitQuiescent() {
		t.Fatal("machine with a queued task reported quiescent")
	}
	m.RunToQuiescence(0)
	if !m.WaitQuiescent() {
		t.Fatal("drained machine reported non-quiescent")
	}
}

func TestExecuteMatching(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2)})
	var got []graph.VertexID
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) { got = append(got, tk.Dst) }))
	for i := 1; i <= 6; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	// Replay an explicit order: 4, 2, 6 on PE 0; 3, 1, 5 on PE 1.
	want := []graph.VertexID{4, 2, 6, 3, 1, 5}
	for _, id := range want {
		tk := task.Task{Kind: task.Reduce, Dst: id}
		pe := int(id) % 2
		if !m.ExecuteMatching(pe, func(q task.Task) bool { return q.Dst == id }, tk) {
			t.Fatalf("task for v%d not found on PE %d", id, pe)
		}
	}
	if m.Inflight() != 0 {
		t.Fatalf("inflight = %d after replaying all tasks", m.Inflight())
	}
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	// No match → false, nothing executed.
	if m.ExecuteMatching(0, func(task.Task) bool { return true }, task.Task{}) {
		t.Fatal("ExecuteMatching on empty pool returned true")
	}
}

func TestMarkTaskCounters(t *testing.T) {
	var c metrics.Counters
	m := New(Config{PEs: 1, Mode: Deterministic, Seed: 1, PartOf: partMod(1), Counters: &c})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	m.Spawn(task.Task{Kind: task.Mark, Dst: 1})
	m.Spawn(task.Task{Kind: task.Return, Dst: 1})
	m.RunToQuiescence(0)
	s := c.Snapshot()
	if s.MarkTasks != 1 || s.ReturnTasks != 1 {
		t.Fatalf("mark=%d return=%d", s.MarkTasks, s.ReturnTasks)
	}
}

func TestExpungeAccounting(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2)})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	for i := 1; i <= 10; i++ {
		m.Spawn(task.Task{Kind: task.Demand, Dst: graph.VertexID(i), Req: graph.ReqVital})
	}
	if m.Inflight() != 10 {
		t.Fatalf("inflight = %d", m.Inflight())
	}
	removed := 0
	for pe := 0; pe < 2; pe++ {
		removed += m.Expunge(pe, func(tk task.Task) bool { return tk.Dst%2 == 0 })
	}
	if removed != 5 {
		t.Fatalf("removed = %d, want 5", removed)
	}
	// Expunged tasks must not be waited for: inflight reflects removal.
	if m.Inflight() != 5 {
		t.Fatalf("inflight after expunge = %d, want 5", m.Inflight())
	}
	m.RunToQuiescence(0)
	if m.Inflight() != 0 {
		t.Fatalf("inflight after drain = %d, want 0", m.Inflight())
	}
}

func TestCurrentTasksParallel(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Parallel, PartOf: partMod(2)})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		if tk.Dst == 1 {
			started <- struct{}{}
			<-release
		}
	}))
	m.Start()
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	<-started
	current := func() (cur []task.Task) {
		m.EachCurrent(func(tk task.Task) { cur = append(cur, tk) })
		return cur
	}
	if cur := current(); len(cur) != 1 || cur[0].Dst != 1 {
		t.Fatalf("EachCurrent visited %v", cur)
	}
	close(release)
	m.WaitQuiescent()
	if got := current(); len(got) != 0 {
		t.Fatalf("EachCurrent after quiescence visited %v", got)
	}
	m.Stop()
}

func TestSpawnPlacementLocality(t *testing.T) {
	// Placement is locality-aware: a spawn is remote exactly when its
	// source vertex's partition differs from its destination's. Sourceless
	// spawns (root demands, collector root marks, self-continuations) are
	// injected by the co-resident host runtime and never cross partitions —
	// the old convention attributed them to PE 0, charging every external
	// spawn for another partition as a remote message (and, with a fabric,
	// a pointless network transit per M_T root).
	var c metrics.Counters
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2), Counters: &c})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))

	// Sourceless spawns of every kind, on both partitions: all local.
	m.Spawn(task.Task{Kind: task.Demand, Dst: 1, Req: graph.ReqVital})
	m.Spawn(task.Task{Kind: task.Mark, Dst: 3})
	m.Spawn(task.Task{Kind: task.Demand, Dst: 2, Req: graph.ReqVital})
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 5})
	// Sourced spawns: remote iff the partitions differ.
	m.Spawn(task.Task{Kind: task.Reduce, Src: 1, Dst: 2}) // PE 1 → PE 0: remote
	m.Spawn(task.Task{Kind: task.Mark, Src: 2, Dst: 5})   // PE 0 → PE 1: remote
	m.Spawn(task.Task{Kind: task.Reduce, Src: 2, Dst: 4}) // PE 0 → PE 0: local
	m.RunToQuiescence(0)

	s := c.Snapshot()
	if s.RemoteMessages != 2 || s.LocalMessages != 5 {
		t.Fatalf("remote=%d local=%d, want 2/5", s.RemoteMessages, s.LocalMessages)
	}
}

func TestSpawnPlacementSourcelessBypassesFabric(t *testing.T) {
	// With a fabric wired in, sourceless spawns must land directly in the
	// destination pool — never in an outbox — since nothing actually
	// travels between partitions for a host-injected task.
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2),
		Fabric: &fabric.Params{BatchSize: 100, FlushEvery: time.Hour}})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	for i := 1; i <= 6; i++ {
		m.Spawn(task.Task{Kind: task.Demand, Dst: graph.VertexID(i), Req: graph.ReqVital})
	}
	if m.InTransit() != 0 {
		t.Fatalf("sourceless spawns entered the fabric: in-transit=%d", m.InTransit())
	}
	if got := m.Pool(0).Len() + m.Pool(1).Len(); got != 6 {
		t.Fatalf("pooled tasks = %d, want 6", got)
	}
	_, quiesced := m.RunToQuiescence(0)
	if !quiesced {
		t.Fatal("did not quiesce")
	}
}

func TestFabricDeterministicExactlyOnce(t *testing.T) {
	var c metrics.Counters
	m := New(Config{PEs: 4, Mode: Deterministic, Seed: 11, PartOf: partMod(4),
		Counters: &c, Fabric: &fabric.Params{
			BatchSize: 4, FlushEvery: 10 * time.Microsecond,
			LinkLatency: 5 * time.Microsecond, Jitter: 3 * time.Microsecond,
			DropRate: 0.3, ReorderRate: 0.1,
		}})
	var executed atomic.Int64
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		executed.Add(1)
		// Fan out one remote hop per task until id 400.
		if tk.Dst < 400 {
			m.Spawn(task.Task{Kind: task.Demand, Src: tk.Dst, Dst: tk.Dst + 1, Req: graph.ReqVital})
		}
	}))
	m.Spawn(task.Task{Kind: task.Demand, Src: 4, Dst: 1, Req: graph.ReqVital})
	_, quiesced := m.RunToQuiescence(0)
	if !quiesced {
		t.Fatal("did not quiesce")
	}
	// Every spawned task executes exactly once despite 30% loss.
	if got := executed.Load(); got != 400 {
		t.Fatalf("executed %d tasks, want 400", got)
	}
	s := c.Snapshot()
	if s.FabricSent != s.FabricDelivered {
		t.Fatalf("conservation: sent=%d delivered=%d", s.FabricSent, s.FabricDelivered)
	}
	if s.FabricSent != s.RemoteMessages {
		t.Fatalf("every remote message rides the fabric: fabric=%d remote=%d",
			s.FabricSent, s.RemoteMessages)
	}
	if s.FabricDropped == 0 {
		t.Fatal("no loss injected at 30% drop")
	}
	if m.InTransit() != 0 {
		t.Fatalf("in-transit after quiescence: %d", m.InTransit())
	}
}

func TestFabricDeterministicReproducible(t *testing.T) {
	run := func() (int64, metrics.Snapshot) {
		var c metrics.Counters
		m := New(Config{PEs: 3, Mode: Deterministic, Seed: 21, PartOf: partMod(3),
			Counters: &c, Fabric: &fabric.Params{
				BatchSize: 3, FlushEvery: 8 * time.Microsecond,
				LinkLatency: 4 * time.Microsecond, Jitter: 6 * time.Microsecond,
				DropRate: 0.2, ReorderRate: 0.2,
			}})
		var sum atomic.Int64
		m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
			sum.Add(int64(tk.Dst))
			if tk.Dst < 200 {
				m.Spawn(task.Task{Kind: task.Demand, Src: tk.Dst, Dst: tk.Dst + 2, Req: graph.ReqVital})
			}
		}))
		m.Spawn(task.Task{Kind: task.Demand, Src: 3, Dst: 1, Req: graph.ReqVital})
		m.Spawn(task.Task{Kind: task.Demand, Src: 3, Dst: 2, Req: graph.ReqVital})
		m.RunToQuiescence(0)
		return sum.Load(), c.Snapshot()
	}
	sumA, statsA := run()
	sumB, statsB := run()
	if sumA != sumB || statsA != statsB {
		t.Fatalf("same seed diverged: sums %d vs %d\n a=%+v\n b=%+v", sumA, sumB, statsA, statsB)
	}
	if statsA.FabricDropped == 0 || statsA.FabricRetries == 0 {
		t.Fatalf("loss schedule missing: %+v", statsA)
	}
}

func TestFabricParallelDelivery(t *testing.T) {
	var c metrics.Counters
	m := New(Config{PEs: 4, Mode: Parallel, Seed: 5, PartOf: partMod(4), Counters: &c,
		Fabric: &fabric.Params{
			BatchSize: 8, FlushEvery: 100 * time.Microsecond,
			LinkLatency: 30 * time.Microsecond, DropRate: 0.05,
		}})
	var count atomic.Int64
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		count.Add(1)
		if tk.Dst < 1000 {
			m.Spawn(task.Task{Kind: task.Demand, Src: tk.Dst, Dst: tk.Dst + 1, Req: graph.ReqVital})
		}
	}))
	m.Start()
	m.Spawn(task.Task{Kind: task.Demand, Src: 4, Dst: 1, Req: graph.ReqVital})
	m.WaitQuiescent()
	m.Stop()
	if got := count.Load(); got != 1000 {
		t.Fatalf("executed %d tasks, want 1000", got)
	}
	s := c.Snapshot()
	if s.FabricSent != s.FabricDelivered {
		t.Fatalf("conservation: sent=%d delivered=%d", s.FabricSent, s.FabricDelivered)
	}
}

// TestStopEmptiesFabric: Stop closes the fabric before the pools, and Close
// lands every batch in custody however far off its arrival is, so the
// stopped machine leaves no task on the wire; Stop abandons what is queued,
// so nothing is in flight and the task never ran.
func TestStopEmptiesFabric(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Parallel, Seed: 1, PartOf: partMod(2),
		Fabric: &fabric.Params{BatchSize: 1, LinkLatency: time.Hour}})
	var count atomic.Int64
	m.SetHandler(HandlerFunc(func(int, task.Task) { count.Add(1) }))
	m.Start()
	m.Spawn(task.Task{Kind: task.Demand, Src: 2, Dst: 1, Req: graph.ReqVital})
	m.Stop()
	if n := m.Fabric().Pending(); n != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", n)
	}
	if n := m.Inflight(); n != 0 {
		t.Fatalf("Inflight() = %d after Stop, want 0", n)
	}
	if got := count.Load(); got != 0 {
		t.Fatalf("executed %d tasks, want none: Stop abandons queued work", got)
	}
}

func TestFabricExpungeInTransit(t *testing.T) {
	m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2),
		Fabric: &fabric.Params{BatchSize: 100, FlushEvery: time.Hour}})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	// Remote demands park in the outbox (huge batch + deadline).
	for i := 0; i < 6; i++ {
		m.Spawn(task.Task{Kind: task.Demand, Src: 2, Dst: graph.VertexID(2*i + 1), Req: graph.ReqVital})
	}
	if m.InTransit() != 6 || m.Inflight() != 6 {
		t.Fatalf("in-transit=%d inflight=%d, want 6/6", m.InTransit(), m.Inflight())
	}
	var seen int
	m.EachInTransit(func(task.Task) { seen++ })
	if seen != 6 {
		t.Fatalf("EachInTransit saw %d, want 6", seen)
	}
	n := m.ExpungeInTransit(func(tk task.Task) bool { return tk.Dst <= 5 })
	if n != 3 {
		t.Fatalf("expunged %d, want 3", n)
	}
	if m.Inflight() != 3 {
		t.Fatalf("inflight after expunge = %d, want 3", m.Inflight())
	}
	_, quiesced := m.RunToQuiescence(0)
	if !quiesced || m.Inflight() != 0 {
		t.Fatalf("quiesced=%v inflight=%d", quiesced, m.Inflight())
	}
}

func TestStealBalancesSkewedLoad(t *testing.T) {
	// Every vertex maps to partition 0: without stealing, PEs 1..3 would
	// never execute anything. With stealing on, the idle PEs drain PE 0's
	// queue and the steal counters record the traffic.
	var c metrics.Counters
	m := New(Config{PEs: 4, Mode: Parallel, Steal: true,
		PartOf: func(graph.VertexID) int { return 0 }, Counters: &c})
	var count atomic.Int64
	m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
		count.Add(1)
		// Simulated work so the queue stays non-empty long enough to steal.
		time.Sleep(50 * time.Microsecond)
	}))
	m.Start()
	for i := 1; i <= 400; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	m.WaitQuiescent()
	m.Stop()

	if got := count.Load(); got != 400 {
		t.Fatalf("executed %d tasks, want 400", got)
	}
	s := c.Snapshot()
	if s.Steals == 0 || s.StolenTasks == 0 {
		t.Fatalf("no stealing recorded on a fully skewed load: %+v", s)
	}
	execs := m.ExecutionsByPE()
	var total, others uint64
	for pe, n := range execs {
		total += n
		if pe != 0 {
			others += n
		}
	}
	if total != 400 {
		t.Fatalf("per-PE execution counts sum to %d, want 400 (%v)", total, execs)
	}
	if others == 0 {
		t.Fatalf("stealing moved work but only PE 0 executed: %v", execs)
	}
}

func TestStealNotesWatch(t *testing.T) {
	// A steal is a pop as far as a pending deadlock verdict is concerned:
	// moving a watched task between pools must touch the armed watch even
	// though the task never executes.
	m := New(Config{PEs: 2, Mode: Parallel, Steal: true, PartOf: partMod(2)})
	m.SetHandler(HandlerFunc(func(int, task.Task) {}))
	// Queue directly (machine not started: nothing pops). A steal takes
	// half the victim's queue from its tail: here the watched task.
	m.Pool(0).Push(task.Task{Kind: task.Demand, Dst: 43, Req: graph.ReqVital})
	m.Pool(0).Push(task.Task{Kind: task.Demand, Dst: 42, Req: graph.ReqVital})
	w := NewWatch([]graph.VertexID{42})
	m.SetWatch(w)
	if w.Touched() {
		t.Fatal("watch touched before any activity")
	}
	if !m.stealFor(1) || m.Pool(1).Len() != 1 {
		t.Fatalf("stealFor moved %d tasks, want 1", m.Pool(1).Len())
	}
	if !w.Touched() {
		t.Fatal("steal of a watched task did not touch the watch")
	}
	// Marking tasks must not touch a fresh watch, stolen or not. The mark
	// is in the highest band, so it is the one stolen.
	w2 := NewWatch([]graph.VertexID{99})
	m.SetWatch(w2)
	m.Pool(0).Push(task.Task{Kind: task.Mark, Dst: 99})
	if !m.stealFor(1) || m.Pool(1).Len() != 2 {
		t.Fatal("mark steal failed")
	}
	if w2.Touched() {
		t.Fatal("stolen mark task touched the watch (marking must not count)")
	}
}

func TestStealUnderWatchStress(t *testing.T) {
	// Stealing while a deadlock verdict is pending must never let a watched
	// task slip through unnoticed: however the pops and steals interleave,
	// by the time a watched task executes (or merely migrates), the watch is
	// touched. A false confirmation requires an untouched watch, so
	// Touched() here is the veto that keeps two-phase verdicts sound.
	for round := 0; round < 20; round++ {
		var c metrics.Counters
		m := New(Config{PEs: 4, Mode: Parallel, Steal: true,
			PartOf: func(graph.VertexID) int { return 0 }, Counters: &c})
		executed := make(chan graph.VertexID, 1024)
		m.SetHandler(HandlerFunc(func(_ int, tk task.Task) {
			if tk.Kind.IsReduction() {
				executed <- tk.Dst
			}
		}))
		const watched = graph.VertexID(7)
		w := NewWatch([]graph.VertexID{watched})
		m.SetWatch(w)
		m.Start()
		for i := 1; i <= 200; i++ {
			m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i % 20)})
		}
		m.WaitQuiescent()
		m.Stop()
		close(executed)
		sawWatched := false
		for id := range executed {
			if id == watched {
				sawWatched = true
			}
		}
		if sawWatched && !w.Touched() {
			t.Fatalf("round %d: watched vertex executed but watch untouched", round)
		}
		if !w.Touched() {
			t.Fatalf("round %d: watch never touched despite watched spawns", round)
		}
	}
}

// TestPendingHandOffIsCurrent: a hand-off is in its PE's slot from the
// instant it is made. EachCurrent yields it beside the running task until the
// handler takes it, and then as the running task until the execution ends;
// the armed watch notes it as it would a spawn. On a parallel machine another
// goroutine reads the slot while the handler waits.
func TestPendingHandOffIsCurrent(t *testing.T) {
	for _, mode := range []Mode{Deterministic, Parallel} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			m := New(Config{PEs: 2, Mode: mode, PartOf: partMod(2)})
			first := task.Task{Kind: task.Demand, Src: 2, Dst: 4, Req: graph.ReqVital}
			next := task.Task{Kind: task.Result, Src: 4, Dst: 6}
			w := NewWatch([]graph.VertexID{6})
			m.SetWatch(w)
			current := func() []task.Task {
				var ts []task.Task
				m.EachCurrent(func(tk task.Task) { ts = append(ts, tk) })
				return ts
			}
			// look reads the slots: from the handler on a seeded machine, from
			// this goroutine while the handler waits on a parallel one.
			var seen [][]task.Task
			record := func() { seen = append(seen, current()) }
			look := record
			if mode == Parallel {
				ask, done := make(chan struct{}), make(chan struct{})
				go func() {
					for range ask {
						record()
						done <- struct{}{}
					}
				}()
				defer close(ask)
				look = func() {
					ask <- struct{}{}
					<-done
				}
			}
			var took task.Task
			var touched bool
			m.SetHandler(HandlerFunc(func(pe int, tk task.Task) {
				if w.Touched() {
					t.Errorf("watch touched before the hand-off")
				}
				m.HandOff(pe, next)
				touched = w.Touched()
				look()
				took = m.TakeHandOff(pe)
				look()
			}))
			m.Spawn(first)
			if mode == Parallel {
				m.Start()
				m.WaitQuiescent()
				m.Stop()
			} else if !m.Step() {
				t.Fatal("nothing ran")
			}
			look()
			if !touched {
				t.Error("the hand-off did not touch the armed watch")
			}
			if took != next {
				t.Errorf("TakeHandOff = %v, want %v", took, next)
			}
			// Compared as printed: the pool sets a queued task's band.
			want := [][]task.Task{{first, next}, {next}, nil}
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				t.Errorf("EachCurrent at the hand-off, after the take and after the execution = %v, want %v", seen, want)
			}
			if got := m.Executions(); got != 1 {
				t.Errorf("%d executions, want 1: a hand-off runs inside its execution", got)
			}
		})
	}
}
