package graph

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestStoreAllocRelease: a new store holds no vertex; the first Alloc deals
// its partition a block, one vertex of which it hands out, and a Release
// puts that vertex back in F.
func TestStoreAllocRelease(t *testing.T) {
	s := NewStore(Config{Partitions: 2})
	if s.Len() != 0 || s.FreeCount() != 0 {
		t.Fatalf("new store: Len %d FreeCount %d, want 0 and 0", s.Len(), s.FreeCount())
	}

	v, err := s.Alloc(1, KindInt, 42)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindInt || v.Val != 42 {
		t.Fatalf("allocated vertex = %+v", v)
	}
	if s.Len() != segSize || s.FreeCount() != segSize-1 || s.FreeCountOf(1) != segSize-1 {
		t.Fatalf("after alloc: Len %d FreeCount %d FreeCountOf(1) %d, want one block with one vertex out",
			s.Len(), s.FreeCount(), s.FreeCountOf(1))
	}
	if s.IsFree(v.ID) {
		t.Fatal("allocated vertex reported free")
	}

	s.Release(v)
	if got := s.FreeCount(); got != segSize {
		t.Fatalf("FreeCount after release = %d, want %d", got, segSize)
	}
	if !s.IsFree(v.ID) {
		t.Fatal("released vertex not reported free")
	}
}

// TestPartitionOfMatchesPart: PartitionOf answers every id of V with the
// Part its vertex was written with when its block was dealt, on 1 to 5
// partitions allocating in turn, and 0 for the ids outside V.
func TestPartitionOfMatchesPart(t *testing.T) {
	for parts := 1; parts <= 5; parts++ {
		s := NewStore(Config{Partitions: parts})
		for i := 0; i < 3*segSize*parts+7; i++ {
			if _, err := s.Alloc(i%parts, KindInt, 0); err != nil {
				t.Fatal(err)
			}
		}
		for id := VertexID(1); int(id) <= s.Len(); id++ {
			v := s.Vertex(id)
			if v == nil {
				t.Fatalf("parts=%d: v%d not materialised", parts, id)
			}
			if got := s.PartitionOf(id); got != int(v.Part) {
				t.Fatalf("parts=%d: PartitionOf(%d) = %d, Part %d", parts, id, got, v.Part)
			}
		}
		if s.PartitionOf(NilVertex) != 0 || s.PartitionOf(VertexID(s.Len()+1)) != 0 {
			t.Fatalf("parts=%d: an id outside V has an owner", parts)
		}
	}
}

// TestNewStorePartitionBound: a vertex records its partition in 16 bits, so
// a store takes at most MaxPartitions partitions — the last of them owns its
// vertices like any other — and NewStore panics, naming the value, when
// asked for one more.
func TestNewStorePartitionBound(t *testing.T) {
	s := NewStore(Config{Partitions: MaxPartitions})
	last := MaxPartitions - 1
	v, err := s.Alloc(last, KindInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int(v.Part) != last || s.PartitionOf(v.ID) != last || s.Snapshot().Vertex(v.ID).Part != last {
		t.Fatalf("v%d in partition %d (PartitionOf %d), want %d", v.ID, v.Part, s.PartitionOf(v.ID), last)
	}
	if w, _ := s.Alloc(0, KindInt, 0); w.Part != 0 || s.PartitionOf(segSize+1) != 0 {
		t.Fatalf("partition 0's vertices: v%d in %d, id %d in %d", w.ID, w.Part, segSize+1, s.PartitionOf(segSize+1))
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "65537 partitions") {
			t.Fatalf("NewStore(MaxPartitions+1) panicked with %q, want the count named", msg)
		}
	}()
	NewStore(Config{Partitions: MaxPartitions + 1})
}

// TestStoreAllocPartitionAffinity: Alloc(p) returns a vertex of partition p,
// also when p's free list is empty and a sibling's is not: p is dealt a
// fresh block, and the sibling's free vertices stay where they are.
func TestStoreAllocPartitionAffinity(t *testing.T) {
	s := NewStore(Config{Partitions: 4})
	v, err := s.Alloc(2, KindHole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Part != 2 {
		t.Fatalf("Part = %d, want 2", v.Part)
	}
	w, err := s.Alloc(0, KindInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(w)
	free0 := s.FreeCountOf(0)
	u, err := s.Alloc(1, KindInt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.Part != 1 || s.PartitionOf(u.ID) != 1 || s.FreeCountOf(0) != free0 || s.Len() != 3*segSize {
		t.Fatalf("Alloc(1) = v%d of partition %d; partition 0's free %d (was %d), Len %d: want a block of its own",
			u.ID, u.Part, s.FreeCountOf(0), free0, s.Len())
	}
}

// TestStoreGrowsWhenNotFixed: a store grows whenever a partition's free
// list is empty, a block at a time: one allocation past a block deals the
// partition a second.
func TestStoreGrowsWhenNotFixed(t *testing.T) {
	s := NewStore(Config{Partitions: 1})
	for i := 0; i < segSize+1; i++ {
		if _, err := s.Alloc(0, KindInt, int64(i)); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if got := s.Len(); got != 2*segSize {
		t.Fatalf("Len = %d, want %d", got, 2*segSize)
	}
}

// exhaustIDs leaves s as a store that has dealt every block of the 32-bit
// id space would be, with every free list empty. Its directory holds only
// the blocks it really dealt, so no id past them may be looked up.
func exhaustIDs(s *Store) {
	for i := range s.shards {
		s.shards[i].ids, s.shards[i].next = nil, NilVertex
	}
	s.n.Store(math.MaxUint32 &^ segMask)
}

// TestAllocFailsOnlyPastTheIdSpace: Alloc's one error is a partition with
// an empty free list and no block of ids left to deal it; the store is left
// as it was, and a vertex released there is handed out again.
func TestAllocFailsOnlyPastTheIdSpace(t *testing.T) {
	s := NewStore(Config{Partitions: 2})
	v, err := s.Alloc(1, KindInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	exhaustIDs(s)
	n := s.Len()
	for part := range 2 {
		if w, err := s.Alloc(part, KindInt, 0); !errors.Is(err, ErrNoFreeVertices) || w != nil {
			t.Fatalf("Alloc(%d) past the id space = %v, %v; want ErrNoFreeVertices", part, w, err)
		}
	}
	if s.Len() != n || s.FreeCount() != 0 {
		t.Fatalf("a failed Alloc left Len %d FreeCount %d, want %d and 0", s.Len(), s.FreeCount(), n)
	}
	s.Release(v)
	if w, err := s.Alloc(1, KindInt, 0); err != nil || w != v {
		t.Fatalf("Alloc after a release = %v, %v; want v%d", w, err, v.ID)
	}
}

func TestStoreVertexLookup(t *testing.T) {
	s := NewStore(Config{Partitions: 1})
	if s.Vertex(NilVertex) != nil {
		t.Fatal("NilVertex lookup should be nil")
	}
	if s.Vertex(999) != nil {
		t.Fatal("out-of-range lookup should be nil")
	}
	v, _ := s.Alloc(0, KindInt, 5)
	if got := s.Vertex(v.ID); got != v {
		t.Fatal("Vertex did not return stable pointer")
	}
	if got := s.PartitionOf(v.ID); got != 0 {
		t.Fatalf("PartitionOf = %d", got)
	}
}

// TestRenormaliseDuringAlloc: a renormalising pass runs while PEs allocate
// with current stamps, wire a marking context at the current epoch and
// release, on a locked store. The pass takes each vertex's lock, so the race
// detector sees no race, and it leaves every current stamp alone while it
// pulls the ones left from far behind.
func TestRenormaliseDuringAlloc(t *testing.T) {
	const now = FreshAllocEpoch - 2 // the counters of both contexts
	s := NewStore(Config{Partitions: 4})
	var wg sync.WaitGroup
	for p := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				v, err := s.AllocStamped(p, KindInt, int64(i), now, now)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				v.Lock()
				v.RCtx.Touch(now, NilVertex, PriorVital)
				stamps := [3]uint32{v.Red.AllocEpoch, v.Red.AllocEpochT, v.RCtx.Epoch}
				v.Unlock()
				if stamps != [3]uint32{now, now, now} {
					t.Errorf("v%d's current stamps read %v after a pass, want %d", v.ID, stamps, now)
					return
				}
				if i%2 == 0 {
					s.Release(v)
				}
			}
		}()
	}
	for range 20 {
		s.Renormalise(now, now)
	}
	wg.Wait()
	s.Renormalise(now, now)
	for id := VertexID(1); int(id) <= s.Len(); id++ {
		v := s.Vertex(id)
		if lag := now - v.TCtx.Epoch; lag > epochLagMax+1 {
			t.Fatalf("v%d's T epoch lags %d after a pass", id, lag)
		}
	}
}

// TestAllocStampsTheFloor: Alloc's stamps read as before the counters at
// every epoch up to the next pass — 0 before the first pass, the floor of
// the last one after it, past 2³¹ and across the wrap — as the sweep and the
// deadlock detector need for a graph built while a machine runs.
func TestAllocStampsTheFloor(t *testing.T) {
	s := NewStore(Config{Partitions: 1})
	v, err := s.Alloc(0, KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Red.AllocEpoch != 0 || v.Red.AllocEpochT != 0 {
		t.Fatalf("before any pass Alloc stamps %d/%d, want 0/0", v.Red.AllocEpoch, v.Red.AllocEpochT)
	}
	for _, now := range []uint32{RenormEvery, 1<<31 + 5, FreshAllocEpoch - 2, epochLagMax - 1, epochLagMax} {
		s.Renormalise(now, now)
		if v, err = s.Alloc(0, KindApply, 0); err != nil {
			t.Fatal(err)
		}
		for _, next := range []uint32{NextEpoch(now), now + RenormEvery} {
			if !EpochBefore(v.Red.AllocEpoch, next) || !EpochBefore(v.Red.AllocEpochT, next) {
				t.Errorf("after a pass at %#x Alloc stamps %#x/%#x, not before %#x",
					now, v.Red.AllocEpoch, v.Red.AllocEpochT, next)
			}
		}
	}
}

func TestStoreConcurrentAllocRelease(t *testing.T) {
	s := NewStore(Config{Partitions: 4})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := s.Alloc(part, KindInt, int64(i))
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				s.Release(v)
			}
		}(p)
	}
	wg.Wait()
	if got := s.FreeCount(); got != s.Len() {
		t.Fatalf("FreeCount = %d, Len = %d; all should be free", got, s.Len())
	}
}

func TestStoreAllocPanicsOnBadPartition(t *testing.T) {
	s := NewStore(Config{Partitions: 2})
	for _, part := range []int{-1, 2, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%d) did not panic", part)
				}
			}()
			_, _ = s.Alloc(part, KindInt, 0)
		}()
	}
}

// TestStoreConcurrentStealConservation: every free vertex starts on
// partition 0, while all allocators run on the other partitions, so each
// of them finds its own list empty. Checks: no id is handed out twice,
// each allocator gets vertices of its own partition, partition 0's free
// vertices stay on partition 0, and |F| is conserved exactly once the dust
// settles.
func TestStoreConcurrentStealConservation(t *testing.T) {
	const parts = 4
	const perG = 300
	s := NewStore(Config{Partitions: parts})
	var seed []*Vertex
	for i := 0; i < parts*perG; i++ {
		v, err := s.Alloc(0, KindInt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		seed = append(seed, v)
	}
	s.ReleaseBatch(seed)
	free0 := s.FreeCountOf(0)
	if free0 != s.FreeCount() || free0 < parts*perG {
		t.Fatalf("seeded FreeCountOf(0) = %d of FreeCount %d, want all of at least %d", free0, s.FreeCount(), parts*perG)
	}

	var mu sync.Mutex
	held := make(map[VertexID]int)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v, err := s.Alloc(part, KindInt, int64(i))
				if err != nil {
					t.Errorf("alloc on part %d: %v", part, err)
					return
				}
				if int(v.Part) != part {
					t.Errorf("alloc on part %d returned v%d of partition %d", part, v.ID, v.Part)
					return
				}
				mu.Lock()
				held[v.ID]++
				mu.Unlock()
				if i%3 == 0 {
					s.Release(v)
					mu.Lock()
					held[v.ID]--
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	live := 0
	for id, n := range held {
		if n < 0 || n > 1 {
			t.Fatalf("vertex %d held %d times (double allocation)", id, n)
		}
		live += n
	}
	if got := s.FreeCount(); got != s.Len()-live {
		t.Fatalf("FreeCount = %d, want Len-live = %d-%d", got, s.Len(), live)
	}
	if got := s.FreeCountOf(0); got != free0 {
		t.Fatalf("FreeCountOf(0) = %d, want %d: another partition took partition 0's vertices", got, free0)
	}
}

// TestStoreConcurrentFixedChurn runs alloc/release churn across partitions
// under the race detector: no allocation fails, the free count balances,
// and a partition that never holds more than two vertices at once is dealt
// one block and no more. Odd partitions give their vertices back two at a
// time by ReleaseBatch, whose per-partition runs the store keeps between
// calls.
func TestStoreConcurrentFixedChurn(t *testing.T) {
	const parts = 4
	s := NewStore(Config{Partitions: parts})
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			var batch []*Vertex
			for i := 0; i < 500; i++ {
				v, err := s.Alloc(part, KindInt, int64(i))
				if err != nil {
					t.Errorf("alloc on part %d: %v", part, err)
					return
				}
				if part%2 == 0 {
					s.Release(v)
					continue
				}
				if batch = append(batch, v); len(batch) == 2 {
					s.ReleaseBatch(batch)
					batch = batch[:0]
				}
			}
			s.ReleaseBatch(batch)
		}(p)
	}
	wg.Wait()
	if got := s.FreeCount(); got != s.Len() {
		t.Fatalf("FreeCount = %d, want %d (all released)", got, s.Len())
	}
	if got := s.Len(); got != parts*segSize {
		t.Fatalf("Len = %d, want %d (one block per partition)", got, parts*segSize)
	}
}

func TestReleaseBatch(t *testing.T) {
	s := NewStore(Config{Partitions: 3})
	// Allocate nine, interleaving partitions.
	var vs []*Vertex
	for i := 0; i < 9; i++ {
		v, err := s.Alloc(i%3, KindInt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	if got := s.FreeCount(); got != s.Len()-9 {
		t.Fatalf("FreeCount = %d, want %d", got, s.Len()-9)
	}
	// Release a non-contiguous mix (partitions interleaved: exercises the
	// one-pass-per-partition logic against double releases).
	batch := []*Vertex{vs[0], vs[1], vs[3], vs[2], vs[6], vs[4]}
	s.ReleaseBatch(batch)
	if got := s.FreeCount(); got != s.Len()-9+len(batch) {
		t.Fatalf("FreeCount = %d, want %d", got, s.Len()-9+len(batch))
	}
	seen := make(map[VertexID]bool)
	for i := 0; i < len(batch); i++ {
		v, err := s.Alloc(i%3, KindHole, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v.ID] {
			t.Fatalf("vertex %d allocated twice: double release", v.ID)
		}
		seen[v.ID] = true
	}
	if got := s.FreeCount(); got != s.Len()-9 {
		t.Fatalf("FreeCount = %d, want %d after re-allocating batch", got, s.Len()-9)
	}
	s.ReleaseBatch(nil) // no-op
}

// TestSerialStoreSkipsShardLock: a serial store's Alloc, Release and
// ReleaseBatch run while someone else holds every free-list shard's mutex
// and the mutex guarding ReleaseBatch's kept runs, so they never take one; a
// default store's wait. The mode bit fits the shard's cache line: freeShard
// stays 64 bytes.
func TestSerialStoreSkipsShardLock(t *testing.T) {
	if got := unsafe.Sizeof(freeShard{}); got != 64 {
		t.Errorf("Sizeof(freeShard) = %d, want 64", got)
	}
	for _, serial := range []bool{false, true} {
		s := NewStore(Config{Partitions: 2, Serial: serial})
		for i := range s.shards {
			if !s.shards[i].mu.Mutex.TryLock() {
				t.Fatalf("serial=%v: a new shard's mutex is held", serial)
			}
		}
		if !s.relMu.Mutex.TryLock() {
			t.Fatalf("serial=%v: a new store's ReleaseBatch mutex is held", serial)
		}
		done := make(chan int)
		go func() {
			var vs []*Vertex
			for i := 0; i < 4; i++ {
				v, err := s.Alloc(i%2, KindInt, int64(i))
				if err != nil {
					t.Error(err)
					done <- -1
					return
				}
				vs = append(vs, v)
			}
			s.Release(vs[0])
			s.ReleaseBatch(vs[1:])
			done <- s.FreeCount()
		}()
		var n int
		if serial {
			n = <-done // hangs if an operation takes a shard mutex
		} else {
			select {
			case <-done:
				t.Fatal("a default store allocated without its shard mutex")
			case <-time.After(20 * time.Millisecond):
			}
		}
		for i := range s.shards {
			s.shards[i].mu.Mutex.Unlock()
		}
		s.relMu.Mutex.Unlock()
		if !serial {
			n = <-done
		}
		if n != 2*segSize {
			t.Fatalf("serial=%v: FreeCount = %d after releasing all, want %d", serial, n, 2*segSize)
		}
	}
}

func TestSnapshot(t *testing.T) {
	s := NewStore(Config{Partitions: 2})
	a, _ := s.Alloc(0, KindApply, 0)
	b, _ := s.Alloc(1, KindInt, 7)
	a.Lock()
	a.AddArg(b.ID, ReqVital)
	a.AddRequester(b.ID, ReqEager)
	a.Unlock()

	snap := s.Snapshot()
	sa := snap.Vertex(a.ID)
	if sa == nil {
		t.Fatal("snapshot missing vertex")
	}
	if sa.Kind != KindApply || len(sa.Args) != 1 || sa.Args[0] != b.ID {
		t.Fatalf("snapshot vertex = %+v", sa)
	}
	if len(sa.Requested) != 1 || sa.Requested[0].Src != b.ID {
		t.Fatalf("snapshot requested = %v", sa.Requested)
	}
	if snap.Vertex(NilVertex) != nil {
		t.Fatal("snapshot of NilVertex should be nil")
	}
	if snap.Len() != s.Len() {
		t.Fatalf("snapshot len = %d, store len = %d", snap.Len(), s.Len())
	}

	// Snapshot must be a deep copy: mutating the live graph must not change it.
	a.Lock()
	a.RemoveArg(b.ID)
	a.Unlock()
	if len(snap.Vertex(a.ID).Args) != 1 {
		t.Fatal("snapshot aliased live edge list")
	}
}

func TestCombPrimMetadata(t *testing.T) {
	if CombS.Arity() != 3 || CombK.Arity() != 2 || CombI.Arity() != 1 || CombSP.Arity() != 4 {
		t.Fatal("combinator arity wrong")
	}
	if CombS.String() != "S" || CombSP.String() != "S'" {
		t.Fatal("combinator names wrong")
	}
	if PrimIf.Arity() != 3 || PrimAdd.Arity() != 2 || PrimNot.Arity() != 1 {
		t.Fatal("prim arity wrong")
	}
	if !PrimIf.Needs(0) || PrimIf.Needs(1) || PrimIf.Needs(2) {
		t.Fatal("if needs exactly its predicate")
	}
	if !PrimAdd.Needs(0) || !PrimAdd.Needs(1) || PrimAdd.Operand() != KindInt {
		t.Fatal("add needs two int operands")
	}
	if PrimCons.Needs(0) || PrimCons.Needs(1) || PrimIsBotOp.Needs(0) {
		t.Fatal("cons and is-bottom claim no operand")
	}
	if Prim(0).Arity() != 0 || PrimEnd.Arity() != 0 || Prim(99).String() != "prim(99)" {
		t.Fatal("unknown codes must read the zero row")
	}
	for p := Prim(1); p < PrimEnd; p++ {
		if (p.Builtin() == "") != (p == PrimIf) || p.String() == "" {
			t.Fatalf("%v: every primitive is named, and all but if have a surface name", p)
		}
		if (p.Operand() != 0) != (p.row().apply != nil) {
			t.Fatalf("%v: a value primitive has both an operand kind and a rule", p)
		}
	}
	if PrimIf.String() != "if" || PrimAdd.String() != "+" {
		t.Fatal("prim names wrong")
	}
}
