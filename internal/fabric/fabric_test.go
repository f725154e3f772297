package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/task"
)

// sink collects deliveries per destination PE.
type sink struct {
	mu  sync.Mutex
	got map[int][]task.Task
}

func newSink() *sink { return &sink{got: make(map[int][]task.Task)} }

func (s *sink) deliver(pe int, ts []task.Task) {
	s.mu.Lock()
	s.got[pe] = append(s.got[pe], ts...)
	s.mu.Unlock()
}

func (s *sink) count(pe int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got[pe])
}

func (s *sink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ts := range s.got {
		n += len(ts)
	}
	return n
}

func tk(src, dst graph.VertexID) task.Task {
	return task.Task{Kind: task.Demand, Src: src, Dst: dst, Req: graph.ReqVital}
}

// drain pumps the deterministic fabric until nothing is in transit.
func drain(t *testing.T, f *Fabric) {
	t.Helper()
	for i := 0; i < 1_000_000 && f.Pending() > 0; i++ {
		f.Tick()
		if !f.Advance() && f.Pending() > 0 {
			t.Fatalf("Advance stalled with %d pending", f.Pending())
		}
	}
	if f.Pending() != 0 {
		t.Fatalf("fabric did not drain: %d pending", f.Pending())
	}
}

func TestFlushByCount(t *testing.T) {
	s := newSink()
	f := New(Config{PEs: 2, Seed: 1, Params: Params{BatchSize: 3, FlushEvery: time.Hour}})
	f.SetDeliver(s.deliver)
	f.Enqueue(0, 1, tk(1, 2))
	f.Enqueue(0, 1, tk(1, 2))
	if s.count(1) != 0 {
		t.Fatalf("delivered before batch full: %d", s.count(1))
	}
	// Third task fills the batch; zero latency delivers synchronously.
	f.Enqueue(0, 1, tk(1, 2))
	if s.count(1) != 3 {
		t.Fatalf("delivered = %d, want 3", s.count(1))
	}
	if f.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", f.Pending())
	}
}

func TestFlushByDeadline(t *testing.T) {
	s := newSink()
	f := New(Config{PEs: 2, Seed: 1,
		Params: Params{BatchSize: 100, FlushEvery: 5 * time.Microsecond}})
	f.SetDeliver(s.deliver)
	f.Enqueue(0, 1, tk(1, 2))
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if s.count(1) != 0 {
		t.Fatalf("delivered before deadline: %d", s.count(1))
	}
	f.Tick() // tick 5 = deadline
	if s.count(1) != 1 {
		t.Fatalf("delivered = %d, want 1 after deadline", s.count(1))
	}
}

func TestAdvanceFastForwards(t *testing.T) {
	s := newSink()
	f := New(Config{PEs: 2, Seed: 1,
		Params: Params{BatchSize: 100, FlushEvery: time.Millisecond,
			LinkLatency: 50 * time.Microsecond}})
	f.SetDeliver(s.deliver)
	f.Enqueue(0, 1, tk(1, 2))
	// No ticking: Advance alone must jump to the flush deadline and then the
	// arrival, without walking 1050 individual ticks.
	for i := 0; i < 4 && f.Pending() > 0; i++ {
		if !f.Advance() {
			t.Fatalf("Advance returned false with %d pending", f.Pending())
		}
	}
	if s.count(1) != 1 {
		t.Fatalf("delivered = %d, want 1", s.count(1))
	}
	if f.Advance() {
		t.Fatal("Advance should report false when idle")
	}
}

func TestExactlyOnceUnderLoss(t *testing.T) {
	for _, drop := range []float64{0.1, 0.3, 0.6} {
		c := &metrics.Counters{}
		s := newSink()
		f := New(Config{PEs: 4, Seed: 99, Counters: c,
			Params: Params{BatchSize: 4, FlushEvery: 10 * time.Microsecond,
				LinkLatency: 3 * time.Microsecond, Jitter: 2 * time.Microsecond,
				DropRate: drop, ReorderRate: 0.2}})
		f.SetDeliver(s.deliver)
		const n = 500
		for i := 0; i < n; i++ {
			f.Enqueue(i%4, (i+1)%4, tk(graph.VertexID(i+1), graph.VertexID(i+2)))
		}
		drain(t, f)
		if got := s.total(); got != n {
			t.Fatalf("drop=%.1f: delivered %d tasks, want exactly %d", drop, got, n)
		}
		snap := c.Snapshot()
		if snap.FabricSent != n || snap.FabricDelivered != n {
			t.Fatalf("drop=%.1f: sent=%d delivered=%d, want %d/%d",
				drop, snap.FabricSent, snap.FabricDelivered, n, n)
		}
		if snap.FabricDropped == 0 || snap.FabricRetries == 0 {
			t.Fatalf("drop=%.1f: no loss/retry recorded (dropped=%d retries=%d)",
				drop, snap.FabricDropped, snap.FabricRetries)
		}
		if snap.FabricRetries < snap.FabricDropped {
			t.Fatalf("drop=%.1f: every dropped transmission needs a retry (dropped=%d retries=%d)",
				drop, snap.FabricDropped, snap.FabricRetries)
		}
		if snap.FabricLatency.Total() != snap.FabricBatches {
			t.Fatalf("latency samples %d != batches %d", snap.FabricLatency.Total(), snap.FabricBatches)
		}
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	run := func() metrics.Snapshot {
		c := &metrics.Counters{}
		s := newSink()
		f := New(Config{PEs: 3, Seed: 7, Counters: c,
			Params: Params{BatchSize: 2, FlushEvery: 7 * time.Microsecond,
				LinkLatency: 5 * time.Microsecond, Jitter: 4 * time.Microsecond,
				DropRate: 0.25, ReorderRate: 0.3}})
		f.SetDeliver(s.deliver)
		for i := 0; i < 300; i++ {
			f.Enqueue(i%3, (i+1)%3, tk(graph.VertexID(i+1), graph.VertexID(i+2)))
			f.Tick()
		}
		drain(t, f)
		return c.Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	if a.FabricDropped == 0 {
		t.Fatal("expected injected loss at 25% drop")
	}
}

func TestEachAndExpunge(t *testing.T) {
	c := &metrics.Counters{}
	s := newSink()
	f := New(Config{PEs: 2, Seed: 1, Counters: c,
		Params: Params{BatchSize: 2, FlushEvery: time.Hour, LinkLatency: time.Hour}})
	f.SetDeliver(s.deliver)
	// One full batch in flight (latency=1h keeps it undelivered) plus one
	// task buffered in the outbox.
	f.Enqueue(0, 1, tk(1, 10))
	f.Enqueue(0, 1, tk(1, 11))
	f.Enqueue(0, 1, tk(1, 12))
	var seen []graph.VertexID
	f.Each(func(t task.Task) { seen = append(seen, t.Dst) })
	if len(seen) != 3 {
		t.Fatalf("Each saw %d tasks, want 3 (in-flight batch + outbox)", len(seen))
	}
	// Expunge the two tasks addressed to 10 and 12.
	n := f.Expunge(func(t task.Task) bool { return t.Dst == 10 || t.Dst == 12 })
	if n != 2 {
		t.Fatalf("expunged %d, want 2", n)
	}
	if f.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", f.Pending())
	}
	if got := c.FabricExpunged.Load(); got != 2 {
		t.Fatalf("FabricExpunged = %d, want 2", got)
	}
	f.Close()
	if s.total() != 1 || s.got[1][0].Dst != 11 {
		t.Fatalf("surviving delivery = %+v, want one task to v11", s.got[1])
	}
}

func TestLinkStatsAndTrace(t *testing.T) {
	c := &metrics.Counters{}
	o := obs.New(obs.Options{})
	s := newSink()
	f := New(Config{PEs: 2, Seed: 3, Counters: c, Obs: o,
		Params: Params{BatchSize: 2, FlushEvery: 5 * time.Microsecond, DropRate: 0.3}})
	f.SetDeliver(s.deliver)
	for i := 0; i < 40; i++ {
		f.Enqueue(0, 1, tk(1, 2))
	}
	drain(t, f)
	snap := c.Snapshot()
	if snap.FabricSent != 40 || snap.FabricDelivered != 40 {
		t.Fatalf("sent=%d delivered=%d, want 40/40", snap.FabricSent, snap.FabricDelivered)
	}
	if snap.FabricDropped == 0 || snap.FabricLatency.Total() != snap.FabricBatches {
		t.Fatalf("missing loss or latency samples: dropped=%d latency samples=%d batches=%d",
			snap.FabricDropped, snap.FabricLatency.Total(), snap.FabricBatches)
	}
	kinds := make(map[string]int)
	for _, e := range o.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []string{"fab.flush", "fab.deliver", "fab.drop", "fab.retry"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded: %v", k, kinds)
		}
	}
}

func TestParallelDelivery(t *testing.T) {
	c := &metrics.Counters{}
	s := newSink()
	f := New(Config{PEs: 4, Parallel: true, Seed: 5, Counters: c,
		Params: Params{BatchSize: 8, FlushEvery: 100 * time.Microsecond,
			LinkLatency: 50 * time.Microsecond, Jitter: 30 * time.Microsecond,
			DropRate: 0.1}})
	// A batch stays in custody until the sink has it: were it subtracted
	// first, a reader could see Pending() == 0 with the last delivery still
	// running.
	var early atomic.Int64
	f.SetDeliver(func(pe int, ts []task.Task) {
		if f.Pending() < int64(len(ts)) {
			early.Add(1)
		}
		s.deliver(pe, ts)
	})
	f.Start()
	const n = 2000
	var wg sync.WaitGroup
	for pe := 0; pe < 4; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				f.Enqueue(pe, (pe+1)%4, tk(graph.VertexID(pe+1), graph.VertexID(i+1)))
			}
		}(pe)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for f.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f.Pending() != 0 {
		t.Fatalf("pending = %d after deadline", f.Pending())
	}
	// The implication a drain loop relies on: nothing pending means every
	// task has reached the sink — not that its delivery is under way.
	if got := s.total(); got != n {
		t.Fatalf("Pending() == 0 with %d of %d tasks delivered", got, n)
	}
	if e := early.Load(); e != 0 {
		t.Fatalf("%d batches left custody before their delivery", e)
	}
	f.Close()
	snap := c.Snapshot()
	if f.Pending() != 0 || snap.FabricSent != n || snap.FabricDelivered != n {
		t.Fatalf("after Close: pending=%d sent=%d delivered=%d, want 0/%d/%d",
			f.Pending(), snap.FabricSent, snap.FabricDelivered, n, n)
	}
	// One latency sample per delivered batch.
	if snap.FabricLatency.Total() != snap.FabricBatches {
		t.Fatalf("latency samples %d != batches %d", snap.FabricLatency.Total(), snap.FabricBatches)
	}
}

// TestCloseEmptiesCustody: Close runs the event loop until nothing is in
// custody, so a batch whose arrival is an hour off still reaches the sink
// and no arrival is left pending behind a closed fabric.
func TestCloseEmptiesCustody(t *testing.T) {
	s := newSink()
	f := New(Config{PEs: 2, Parallel: true, Seed: 1,
		Params: Params{BatchSize: 1, LinkLatency: time.Hour}})
	f.SetDeliver(s.deliver)
	f.Start()
	f.Enqueue(0, 1, tk(1, 2))
	f.Close()
	if f.Pending() != 0 || s.count(1) != 1 {
		t.Fatalf("after Close: pending=%d delivered=%d, want 0/1", f.Pending(), s.count(1))
	}
}

// TestPumpPeriodFollowsLatency: the pump's period comes from the delays it
// serves, not from FlushEvery alone, so an hour-long flush deadline does not
// hold back a 100µs arrival.
func TestPumpPeriodFollowsLatency(t *testing.T) {
	s := newSink()
	f := New(Config{PEs: 2, Parallel: true, Seed: 1,
		Params: Params{BatchSize: 1, FlushEvery: time.Hour, LinkLatency: 100 * time.Microsecond}})
	f.SetDeliver(s.deliver)
	f.Start()
	defer f.Close()
	f.Enqueue(0, 1, tk(1, 2))
	deadline := time.Now().Add(time.Second)
	for s.count(1) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.count(1) != 1 {
		t.Fatalf("delivered %d within 1s, want 1", s.count(1))
	}
}

func TestCloseDeliversDirectly(t *testing.T) {
	s := newSink()
	f := New(Config{PEs: 2, Seed: 1})
	f.SetDeliver(s.deliver)
	f.Close()
	f.Enqueue(0, 1, tk(1, 2))
	if s.count(1) != 1 {
		t.Fatal("post-close Enqueue must bypass the network")
	}
}

// TestFlushDeliverAllocBudget pins what one full batch — 16 enqueues, the
// flush they trigger, and its delivery — allocates with no observability
// handle attached: the outbox's growth and the batch record, and nothing for
// the fab.flush / fab.deliver events nobody is listening to.
func TestFlushDeliverAllocBudget(t *testing.T) {
	f := New(Config{PEs: 2, Seed: 1, Params: Params{BatchSize: 16}})
	f.SetDeliver(func(int, []task.Task) {})
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			f.Enqueue(0, 1, tk(1, 2))
		}
	})
	if f.Pending() != 0 {
		t.Fatalf("pending = %d, want every batch delivered", f.Pending())
	}
	const budget = 6
	if allocs > budget {
		t.Fatalf("one 16-task flush + deliver allocates %.0f objects, budget %d", allocs, budget)
	}
	t.Logf("%.0f allocs per batch", allocs)
}
