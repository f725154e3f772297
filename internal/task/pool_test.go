package task

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"dgr/internal/graph"
)

func TestKindPredicates(t *testing.T) {
	if !Mark.IsMarking() || !Return.IsMarking() {
		t.Fatal("marking predicates wrong")
	}
	if Mark.IsReduction() || !Demand.IsReduction() || !Result.IsReduction() || !Reduce.IsReduction() {
		t.Fatal("reduction predicates wrong")
	}
	if Demand.String() != "demand" || Kind(99).String() != "task(99)" {
		t.Fatal("kind names wrong")
	}
}

func TestComputeBand(t *testing.T) {
	tests := []struct {
		task Task
		want uint8
	}{
		{Task{Kind: Mark}, BandMarking},
		{Task{Kind: Return}, BandMarking},
		{Task{Kind: Demand, Req: graph.ReqVital}, BandVital},
		{Task{Kind: Demand, Req: graph.ReqEager}, BandEager},
		{Task{Kind: Demand, Req: graph.ReqNone}, BandReserve},
		{Task{Kind: Result}, BandVital},
		{Task{Kind: Reduce}, BandVital},
	}
	for _, tt := range tests {
		if got := tt.task.ComputeBand(); got != tt.want {
			t.Errorf("%v band = %d, want %d", tt.task, got, tt.want)
		}
	}
}

func TestPoolPriorityOrder(t *testing.T) {
	p := NewPool()
	p.Push(Task{Kind: Demand, Dst: 1, Req: graph.ReqEager})
	p.Push(Task{Kind: Demand, Dst: 2, Req: graph.ReqVital})
	p.Push(Task{Kind: Mark, Dst: 3})
	p.Push(Task{Kind: Demand, Dst: 4, Req: graph.ReqNone})
	p.Push(Task{Kind: Demand, Dst: 5, Req: graph.ReqVital})

	wantOrder := []graph.VertexID{3, 2, 5, 1, 4} // marking, vital FIFO, eager, reserve
	for i, want := range wantOrder {
		tk, ok := p.TryPop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if tk.Dst != want {
			t.Fatalf("pop %d = dst %d, want %d", i, tk.Dst, want)
		}
	}
	if _, ok := p.TryPop(); ok {
		t.Fatal("pool should be empty")
	}
}

func TestPoolLen(t *testing.T) {
	p := NewPool()
	if p.Len() != 0 {
		t.Fatal("new pool not empty")
	}
	p.Push(Task{Kind: Reduce, Dst: 1})
	p.Push(Task{Kind: Reduce, Dst: 2})
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.TryPop()
	if p.Len() != 1 {
		t.Fatalf("Len after pop = %d", p.Len())
	}
}

func TestPoolPopRandomExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool()
	seen := map[graph.VertexID]bool{}
	for i := 1; i <= 20; i++ {
		p.Push(Task{Kind: Demand, Dst: graph.VertexID(i), Req: graph.ReqKind(i % 3)})
	}
	for i := 0; i < 20; i++ {
		tk, ok := p.TryPopRandom(rng)
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if seen[tk.Dst] {
			t.Fatalf("task %d popped twice", tk.Dst)
		}
		seen[tk.Dst] = true
	}
	if _, ok := p.TryPopRandom(rng); ok {
		t.Fatal("pool should be empty")
	}
}

// TestPoolPopWaitClose: a closed pool returns closed at once and hands out
// nothing although tasks are queued, and Expunge then empties it.
func TestPoolPopWaitClose(t *testing.T) {
	p := NewPool()
	p.Push(Task{Kind: Reduce, Dst: 1})
	p.Push(Task{Kind: Reduce, Dst: 2})
	p.Close()
	start := time.Now()
	if tk, ok, closed := p.PopWaitFor(time.Hour); ok || !closed {
		t.Fatalf("PopWaitFor on a closed pool = %v, %v, %v; want closed and no task", tk, ok, closed)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("PopWaitFor on a closed pool waited %v", d)
	}
	if tk, ok := p.TryPop(); ok {
		t.Fatalf("TryPop on a closed pool handed out %v", tk)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want the 2 queued tasks", p.Len())
	}
	if n := p.Expunge(func(Task) bool { return true }); n != 2 || p.Len() != 0 {
		t.Fatalf("Expunge removed %d, left %d; want 2 and 0", n, p.Len())
	}
}

func TestPoolEach(t *testing.T) {
	p := NewPool()
	p.Push(Task{Kind: Demand, Src: 1, Dst: 2, Req: graph.ReqVital})
	p.Push(Task{Kind: Mark, Dst: 3})
	var got []Task
	p.Each(func(tk Task) { got = append(got, tk) })
	if len(got) != 2 {
		t.Fatalf("Each visited %d tasks", len(got))
	}
}

// TestSerialPoolTakesNoLock: a serial pool's Push, TryPop and Each run while
// someone else holds its mutex, so they never take it; a default pool's wait
// for it. The mode bit sits in the padding after closed and waiting: Pool
// is 208 bytes.
func TestSerialPoolTakesNoLock(t *testing.T) {
	if got := unsafe.Sizeof(Pool{}); got != 208 {
		t.Errorf("Sizeof(Pool) = %d, want 208", got)
	}
	for _, serial := range []bool{false, true} {
		p := NewPool()
		if serial {
			p = NewSerialPool()
		}
		if !p.mu.Mutex.TryLock() {
			t.Fatalf("serial=%v: a new pool's mutex is held", serial)
		}
		done := make(chan int)
		go func() {
			p.Push(Task{Kind: Mark, Dst: 1})
			p.Push(Task{Kind: Demand, Dst: 2, Req: graph.ReqVital})
			p.TryPop()
			n := 0
			p.Each(func(Task) { n++ })
			done <- n
		}()
		var n int
		if serial {
			n = <-done // hangs if an operation takes the mutex
		} else {
			select {
			case <-done:
				t.Fatal("a default pool ran its operations without its mutex")
			case <-time.After(20 * time.Millisecond):
			}
		}
		p.mu.Mutex.Unlock()
		if !serial {
			n = <-done
		}
		if n != 1 {
			t.Fatalf("serial=%v: Each saw %d tasks, want 1", serial, n)
		}
	}
}

// TestEachAcross: the all-pools scan visits every queued task, pool by pool
// in creation order, without allocating, and refuses a slice out of that
// order — the lock order StealInto relies on.
func TestEachAcross(t *testing.T) {
	pools := []*Pool{NewPool(), NewPool(), NewPool()}
	for i, p := range pools {
		p.Push(Task{Kind: Mark, Dst: graph.VertexID(i + 1)})
	}
	var got []graph.VertexID
	EachAcross(pools, func(tk Task) { got = append(got, tk.Dst) })
	if !slices.Equal(got, []graph.VertexID{1, 2, 3}) {
		t.Fatalf("EachAcross visited %v, want [1 2 3]", got)
	}
	if n := testing.AllocsPerRun(20, func() { EachAcross(pools, func(Task) {}) }); n != 0 {
		t.Errorf("EachAcross makes %v allocations, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("EachAcross over pools out of creation order did not panic")
		}
	}()
	EachAcross([]*Pool{pools[1], pools[0]}, func(Task) {})
}

func TestPoolExpunge(t *testing.T) {
	p := NewPool()
	for i := 1; i <= 10; i++ {
		p.Push(Task{Kind: Demand, Dst: graph.VertexID(i), Req: graph.ReqEager})
	}
	n := p.Expunge(func(tk Task) bool { return tk.Dst%2 == 0 })
	if n != 5 {
		t.Fatalf("expunged %d, want 5", n)
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	p.Each(func(tk Task) {
		if tk.Dst%2 == 0 {
			t.Errorf("task %d should have been expunged", tk.Dst)
		}
	})
}

func TestPoolReprioritize(t *testing.T) {
	p := NewPool()
	p.Push(Task{Kind: Demand, Dst: 1, Req: graph.ReqEager})
	p.Push(Task{Kind: Demand, Dst: 2, Req: graph.ReqVital})
	p.Push(Task{Kind: Mark, Dst: 3}) // non-demand: untouched

	// Upgrade everything to vital.
	changed := p.Reprioritize(func(tk Task) graph.ReqKind { return graph.ReqVital })
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	// Mark first, then the two now-vital demands; dst=2 was already in the
	// vital band so it precedes the moved dst=1.
	order := []graph.VertexID{3, 2, 1}
	for i, want := range order {
		tk, ok := p.TryPop()
		if !ok || tk.Dst != want {
			t.Fatalf("pop %d = %v (ok=%v), want dst %d", i, tk, ok, want)
		}
		if tk.Kind == Demand && tk.Req != graph.ReqVital {
			t.Fatalf("task %v not upgraded", tk)
		}
	}
}

func TestPoolReprioritizeNoDoubleVisit(t *testing.T) {
	// A Demand moved to a not-yet-processed higher band must not be
	// re-visited in the same pass: a band's filter sees only the tasks it
	// held when the pass began. Count fn invocations per task to prove it.
	p := NewPool()
	const n = 50
	for i := 1; i <= n; i++ {
		// Alternate reserve/eager/vital so moves go both up and down.
		p.Push(Task{Kind: Demand, Dst: graph.VertexID(i), Req: graph.ReqKind(i % 3)})
	}
	calls := map[graph.VertexID]int{}
	changed := p.Reprioritize(func(tk Task) graph.ReqKind {
		calls[tk.Dst]++
		// Invert priority: reserve→vital, vital→reserve, eager stays.
		switch tk.Req {
		case graph.ReqNone:
			return graph.ReqVital
		case graph.ReqVital:
			return graph.ReqNone
		default:
			return tk.Req
		}
	})
	for id, c := range calls {
		if c != 1 {
			t.Fatalf("fn called %d times for task %d, want exactly 1", c, id)
		}
	}
	if len(calls) != n {
		t.Fatalf("fn visited %d tasks, want %d", len(calls), n)
	}
	if p.Len() != n {
		t.Fatalf("Len = %d after reprioritize, want %d", p.Len(), n)
	}
	// reserve↔vital both moved; eager (i%3==1) stayed.
	wantChanged := 0
	for i := 1; i <= n; i++ {
		if i%3 != 1 {
			wantChanged++
		}
	}
	if changed != wantChanged {
		t.Fatalf("changed = %d, want %d", changed, wantChanged)
	}
	// Every task still present exactly once, with Band matching Req.
	seen := map[graph.VertexID]int{}
	for {
		tk, ok := p.TryPop()
		if !ok {
			break
		}
		seen[tk.Dst]++
		if want := tk.ComputeBand(); tk.Band != want {
			t.Fatalf("task %d band %d != ComputeBand %d", tk.Dst, tk.Band, want)
		}
	}
	for i := 1; i <= n; i++ {
		if seen[graph.VertexID(i)] != 1 {
			t.Fatalf("task %d popped %d times", i, seen[graph.VertexID(i)])
		}
	}
}

// poolSink keeps a measured pool on the heap.
var poolSink *Pool

// TestSerialPoolHasNoCond: a serial pool makes no wake channel, the
// condition its consumer would wait on, and everything but PopWaitFor works
// without one — Close included, which wakes only a waiting consumer.
// PopWaitFor, which a serial pool's one goroutine could never be woken from,
// panics. NewSerialPool makes one object, the pool.
func TestSerialPoolHasNoCond(t *testing.T) {
	if NewPool().wakeC == nil {
		t.Fatal("a default pool has no wake channel")
	}
	if n := testing.AllocsPerRun(10, func() { poolSink = NewSerialPool() }); n != 1 {
		t.Errorf("NewSerialPool makes %v allocations, want 1", n)
	}
	p := NewSerialPool()
	if p.wakeC != nil {
		t.Fatal("a serial pool has a wake channel")
	}
	p.Push(Task{Kind: Mark, Dst: 1})
	p.Close()
	if _, ok := p.TryPop(); ok {
		t.Fatal("a closed serial pool handed out a task")
	}
	defer func() {
		if recover() == nil {
			t.Error("PopWaitFor on a serial pool did not panic")
		}
	}()
	p.PopWaitFor(time.Millisecond)
}

// TestPoolReprioritizeAllocatesNothing: a pass that moves tasks between
// bands with room for them allocates nothing, and leaves every band in the
// order a pass that pushed the moved tasks after all filters would.
func TestPoolReprioritizeAllocatesNothing(t *testing.T) {
	p := NewSerialPool()
	for i := 1; i <= 12; i++ {
		p.Push(Task{Kind: Demand, Dst: graph.VertexID(i), Req: graph.ReqKind(i % 3)})
	}
	flip := func(tk Task) graph.ReqKind { // reserve<->vital, eager stays
		switch tk.Req {
		case graph.ReqNone:
			return graph.ReqVital
		case graph.ReqVital:
			return graph.ReqNone
		}
		return tk.Req
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Reprioritize(flip) }); allocs != 0 {
		t.Errorf("Reprioritize allocates %.1f objects per pass, want 0", allocs)
	}
	// 101 passes: reserve and vital have swapped once. Vital holds the old
	// reserve tasks (i%3 == 0) in push order, then eager, then the rest.
	want := []graph.VertexID{3, 6, 9, 12, 1, 4, 7, 10, 2, 5, 8, 11}
	for i, id := range want {
		if tk, ok := p.TryPop(); !ok || tk.Dst != id {
			t.Fatalf("pop %d = %v (ok=%v), want dst %d", i, tk, ok, id)
		}
	}
}

// TestTaskSize: the fields are ordered by size, so a task is 48 bytes. The
// CI census prints it.
func TestTaskSize(t *testing.T) {
	sz := unsafe.Sizeof(Task{})
	t.Logf("census: Sizeof(Task)=%d", sz)
	if sz != 48 {
		t.Errorf("Sizeof(Task) = %d, want 48", sz)
	}
}

func TestPoolReprioritizeQuickConservation(t *testing.T) {
	// Property: Reprioritize interleaved with Expunge and adversarial
	// TryPopRandom never double-counts, loses, or duplicates a task.
	f := func(dsts []uint16, reqs []uint8, seed int64) bool {
		if len(dsts) == 0 {
			return true
		}
		p := NewPool()
		// remaining[id] tracks how many tasks for id should still be in
		// the pool; every pop decrements it, every expunge zeroes it.
		remaining := map[graph.VertexID]int{}
		for i, d := range dsts {
			id := graph.VertexID(d)%97 + 1
			p.Push(Task{Kind: Demand, Dst: id, Req: graph.ReqKind(i % 3)})
			remaining[id]++
		}
		rng := rand.New(rand.NewSource(seed))
		for p.Len() > 0 {
			switch rng.Intn(4) {
			case 0: // reprioritize to a destination-derived kind
				p.Reprioritize(func(tk Task) graph.ReqKind {
					if len(reqs) == 0 {
						return graph.ReqVital
					}
					return graph.ReqKind(reqs[int(tk.Dst)%len(reqs)] % 3)
				})
			case 1: // expunge one id
				cut := graph.VertexID(rng.Intn(97) + 1)
				n := p.Expunge(func(tk Task) bool { return tk.Dst == cut })
				if n != remaining[cut] {
					return false // lost or duplicated a task of this id
				}
				remaining[cut] = 0
			case 2: // adversarial random pop
				if tk, ok := p.TryPopRandom(rng); ok {
					remaining[tk.Dst]--
				}
			default: // priority pop
				if tk, ok := p.TryPop(); ok {
					remaining[tk.Dst]--
				}
			}
		}
		for _, n := range remaining {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPoolTryPopWhere(t *testing.T) {
	p := NewPool()
	p.Push(Task{Kind: Demand, Dst: 1, Req: graph.ReqEager})
	p.Push(Task{Kind: Mark, Dst: 2})
	p.Push(Task{Kind: Demand, Dst: 3, Req: graph.ReqVital})
	p.Push(Task{Kind: Demand, Dst: 1, Req: graph.ReqVital})

	// Predicate picks a specific task regardless of band order.
	tk, ok := p.TryPopWhere(func(q Task) bool { return q.Dst == 1 && q.Kind == Demand && q.Req == graph.ReqEager })
	if !ok || tk.Dst != 1 || tk.Req != graph.ReqEager {
		t.Fatalf("TryPopWhere = %+v ok=%v", tk, ok)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	// High bands are scanned first: a catch-all predicate gets the mark.
	tk, ok = p.TryPopWhere(func(Task) bool { return true })
	if !ok || tk.Kind != Mark {
		t.Fatalf("catch-all popped %+v, want the mark task", tk)
	}
	// No match leaves the pool untouched.
	if _, ok := p.TryPopWhere(func(Task) bool { return false }); ok {
		t.Fatal("no-match TryPopWhere returned a task")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
}

func TestTaskString(t *testing.T) {
	tk := Task{Kind: Mark, Src: 1, Dst: 2, Ctx: graph.CtxR, Prior: 3}
	if got := tk.String(); got != "markR<1,2,p3>" {
		t.Fatalf("String = %q", got)
	}
	tk2 := Task{Kind: Demand, Src: 3, Dst: 4, Req: graph.ReqEager}
	if got := tk2.String(); got != "demand<3,4,eager>" {
		t.Fatalf("String = %q", got)
	}
}

func TestPoolQuickConservation(t *testing.T) {
	// Property: every pushed task is popped exactly once, regardless of
	// the mix of priority and random pops.
	f := func(dsts []uint16, seed int64) bool {
		if len(dsts) == 0 {
			return true
		}
		p := NewPool()
		want := map[graph.VertexID]int{}
		for i, d := range dsts {
			id := graph.VertexID(d) + 1
			p.Push(Task{Kind: Demand, Dst: id, Req: graph.ReqKind(i % 3)})
			want[id]++
		}
		rng := rand.New(rand.NewSource(seed))
		got := map[graph.VertexID]int{}
		for p.Len() > 0 {
			var tk Task
			var ok bool
			if rng.Intn(2) == 0 {
				tk, ok = p.TryPop()
			} else {
				tk, ok = p.TryPopRandom(rng)
			}
			if !ok {
				return false
			}
			got[tk.Dst]++
		}
		if len(got) != len(want) {
			return false
		}
		for id, n := range want {
			if got[id] != n {
				return false
			}
		}
		_, ok := p.TryPop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoolQuickBandOrder(t *testing.T) {
	// Property: priority pops never yield a lower band before a higher
	// band that was present at pop time.
	f := func(kinds []uint8) bool {
		p := NewPool()
		for _, k := range kinds {
			p.Push(Task{Kind: Demand, Dst: 1, Req: graph.ReqKind(k % 3)})
		}
		lastBand := int(numBands)
		counts := make([]int, numBands)
		p.mu.Lock()
		for b := range p.bands {
			counts[b] = p.bands[b].len()
		}
		p.mu.Unlock()
		for {
			tk, ok := p.TryPop()
			if !ok {
				return true
			}
			b := int(tk.Band)
			// A higher band must have been empty when we popped b.
			for hb := b + 1; hb < int(numBands); hb++ {
				if counts[hb] > 0 {
					return false
				}
			}
			counts[b]--
			_ = lastBand
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoolPushBatch(t *testing.T) {
	p := NewPool()
	p.PushBatch([]Task{
		{Kind: Demand, Dst: 1, Req: graph.ReqNone},
		{Kind: Mark, Dst: 2},
		{Kind: Demand, Dst: 3, Req: graph.ReqVital},
	})
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	// Band order must hold across a batch push: marking first, then vital,
	// then the reserve-band demand.
	wantDst := []graph.VertexID{2, 3, 1}
	for i, want := range wantDst {
		tk, ok := p.TryPop()
		if !ok || tk.Dst != want {
			t.Fatalf("pop %d = %+v ok=%v, want dst %d", i, tk, ok, want)
		}
	}
	p.PushBatch(nil)
	if p.Len() != 0 {
		t.Fatalf("empty batch changed Len to %d", p.Len())
	}
}

// TestPoolPushBatchWakesWaiters: a PushBatch wakes the pool's parked
// consumer, which takes the batch's first task.
func TestPoolPushBatchWakesWaiters(t *testing.T) {
	p := NewPool()
	got := make(chan Task, 1)
	go func() {
		if tk, ok, _ := p.PopWaitFor(time.Hour); ok {
			got <- tk
		}
		close(got)
	}()
	time.Sleep(2 * time.Millisecond) // let it park
	batch := make([]Task, 4)
	for i := range batch {
		batch[i] = Task{Kind: Demand, Dst: graph.VertexID(i + 1), Req: graph.ReqVital}
	}
	p.PushBatch(batch)
	if tk, ok := <-got; !ok || tk.Dst != 1 {
		t.Fatalf("woken consumer took %v, %v; want dst 1", tk, ok)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d after one pop of a batch of 4", p.Len())
	}
}

func TestPoolStealInto(t *testing.T) {
	victim, thief := NewPool(), NewPool()
	// Two bands on the victim: vital v1..v4, reserve r11..r13.
	for i := 1; i <= 4; i++ {
		victim.Push(Task{Kind: Demand, Dst: graph.VertexID(i), Req: graph.ReqVital})
	}
	for i := 11; i <= 13; i++ {
		victim.Push(Task{Kind: Demand, Dst: graph.VertexID(i), Req: graph.ReqNone})
	}
	var moved []graph.VertexID
	each := func(tk Task) { moved = append(moved, tk.Dst) }

	// Steal 2: from the tail of the highest band, FIFO order retained.
	if n := victim.StealInto(thief, 2, each); n != 2 {
		t.Fatalf("stole %d, want 2", n)
	}
	if victim.Len() != 5 || thief.Len() != 2 {
		t.Fatalf("lens after steal: victim=%d thief=%d, want 5/2", victim.Len(), thief.Len())
	}
	// Steal 3 more: the remaining vital tasks, then the reserve tail.
	if n := victim.StealInto(thief, 3, each); n != 3 {
		t.Fatalf("second steal moved %d, want 3", n)
	}
	// Thief got the vital tail {3,4}, then vital {1,2}, then reserve {13};
	// within each band the pops come out FIFO in arrival order.
	wantThief := []graph.VertexID{3, 4, 1, 2, 13}
	for i, want := range wantThief {
		tk, ok := thief.TryPop()
		if !ok || tk.Dst != want {
			t.Fatalf("thief pop %d = %v/%v, want dst %d", i, tk.Dst, ok, want)
		}
	}
	// Victim kept the oldest reserve work.
	wantVictim := []graph.VertexID{11, 12}
	for i, want := range wantVictim {
		tk, ok := victim.TryPop()
		if !ok || tk.Dst != want {
			t.Fatalf("victim pop %d = %v/%v, want dst %d", i, tk.Dst, ok, want)
		}
	}
	// The each observer saw the five stolen tasks (the deadlock-verdict
	// watch's veto path) in the order they moved.
	if !slices.Equal(moved, wantThief) {
		t.Fatalf("each saw %v, want %v", moved, wantThief)
	}
}

func TestPoolStealIntoLimitsAndSelf(t *testing.T) {
	a, b := NewPool(), NewPool()
	a.Push(Task{Kind: Reduce, Dst: 1})
	if n := a.StealInto(a, 5, nil); n != 0 {
		t.Fatalf("self-steal moved %d", n)
	}
	if n := a.StealInto(b, 0, nil); n != 0 {
		t.Fatalf("zero-max steal moved %d", n)
	}
	if n := a.StealInto(b, 5, nil); n != 1 {
		t.Fatalf("steal moved %d, want 1", n)
	}
	if n := a.StealInto(b, 5, nil); n != 0 {
		t.Fatalf("steal from empty moved %d", n)
	}
}

func TestPoolStealIntoConcurrentOppositeDirections(t *testing.T) {
	// Lock ordering: steals in both directions at once must not deadlock
	// and must conserve tasks.
	a, b := NewPool(), NewPool()
	for i := 0; i < 200; i++ {
		a.Push(Task{Kind: Reduce, Dst: graph.VertexID(i)})
		b.Push(Task{Kind: Reduce, Dst: graph.VertexID(1000 + i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					a.StealInto(b, 3, nil)
				} else {
					b.StealInto(a, 3, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if total := a.Len() + b.Len(); total != 400 {
		t.Fatalf("tasks not conserved: %d, want 400", total)
	}
}

func TestPoolPopWaitFor(t *testing.T) {
	p := NewPool()
	// Timeout on an empty pool.
	if _, ok, closed := p.PopWaitFor(time.Millisecond); ok || closed {
		t.Fatalf("empty pool: ok=%v closed=%v, want timeout", ok, closed)
	}
	// Immediate pop when a task is queued.
	p.Push(Task{Kind: Reduce, Dst: 7})
	if tk, ok, _ := p.PopWaitFor(time.Millisecond); !ok || tk.Dst != 7 {
		t.Fatalf("queued pool: ok=%v dst=%v", ok, tk.Dst)
	}
	// A push during the wait delivers before the deadline.
	done := make(chan Task, 1)
	go func() {
		tk, ok, _ := p.PopWaitFor(time.Minute)
		if ok {
			done <- tk
		}
	}()
	time.Sleep(2 * time.Millisecond)
	p.Push(Task{Kind: Reduce, Dst: 8})
	select {
	case tk := <-done:
		if tk.Dst != 8 {
			t.Fatalf("delivered dst %d, want 8", tk.Dst)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push did not wake the timed waiter")
	}
	// Close wakes the waiter with closed=true.
	res := make(chan bool, 1)
	go func() {
		_, _, closed := p.PopWaitFor(time.Minute)
		res <- closed
	}()
	time.Sleep(2 * time.Millisecond)
	p.Close()
	select {
	case closed := <-res:
		if !closed {
			t.Fatal("Close did not report closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the timed waiter")
	}
}

// TestPoolRestructureAllocsIndependentOfSize: the collector calls Expunge and
// Reprioritize on every pool in every cycle, so what they ask the allocator
// for may not grow with the queue — at most the closure handed to each band.
func TestPoolRestructureAllocsIndependentOfSize(t *testing.T) {
	measure := func(n int) (expunge, reprio float64) {
		p := NewPool()
		for i := 0; i < n; i++ {
			p.Push(Task{Kind: Demand, Dst: graph.VertexID(i + 1), Req: graph.ReqVital})
		}
		expunge = testing.AllocsPerRun(20, func() {
			p.Expunge(func(Task) bool { return false })
		})
		reprio = testing.AllocsPerRun(20, func() {
			p.Reprioritize(func(t Task) graph.ReqKind { return t.Req })
		})
		return expunge, reprio
	}
	e10, r10 := measure(10)
	e1000, r1000 := measure(1000)
	if e10 != e1000 || r10 != r1000 {
		t.Fatalf("allocations grow with the queue: Expunge %v → %v, Reprioritize %v → %v (10 → 1000 tasks)",
			e10, e1000, r10, r1000)
	}
	if e10 > float64(NumBands) || r10 > float64(NumBands) {
		t.Fatalf("Expunge %v, Reprioritize %v allocations per call; want at most one closure per band (%d)",
			e10, r10, NumBands)
	}
}
