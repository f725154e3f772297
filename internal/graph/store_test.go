package graph

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestStoreAllocRelease(t *testing.T) {
	s := NewStore(Config{Partitions: 2, Capacity: 4})
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.FreeCount(); got != 4 {
		t.Fatalf("FreeCount = %d, want 4", got)
	}

	v, err := s.Alloc(1, KindInt, 42)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindInt || v.Val != 42 {
		t.Fatalf("allocated vertex = %+v", v)
	}
	if got := s.FreeCount(); got != 3 {
		t.Fatalf("FreeCount after alloc = %d, want 3", got)
	}
	if s.IsFree(v.ID) {
		t.Fatal("allocated vertex reported free")
	}

	s.Release(v)
	if got := s.FreeCount(); got != 4 {
		t.Fatalf("FreeCount after release = %d, want 4", got)
	}
	if !s.IsFree(v.ID) {
		t.Fatal("released vertex not reported free")
	}
}

// TestPartitionOfMatchesPart: PartitionOf answers a reserved id by
// arithmetic and a grown id by its vertex, and either way agrees with the
// Part the vertex was written with, on every materialised id, reserved and
// grown, on 1 to 5 partitions.
func TestPartitionOfMatchesPart(t *testing.T) {
	for parts := 1; parts <= 5; parts++ {
		capacity := segSize + 7
		s := NewStore(Config{Partitions: parts, Capacity: capacity})
		// Past the reserved range every partition grows ids of its own, so
		// a grown id's owner is not (id-1) mod parts.
		for i := 0; i < capacity+4*parts; i++ {
			if _, err := s.Alloc(i%parts, KindInt, 0); err != nil {
				t.Fatal(err)
			}
		}
		reserved, grown := 0, 0
		for id := VertexID(1); int(id) <= s.Len(); id++ {
			v := s.Vertex(id)
			if v == nil {
				t.Fatalf("parts=%d: v%d not materialised", parts, id)
			}
			if got := s.PartitionOf(id); got != int(v.Part) {
				t.Fatalf("parts=%d: PartitionOf(%d) = %d, Part %d", parts, id, got, v.Part)
			}
			if int(id) <= capacity {
				reserved++
			} else {
				grown++
			}
		}
		if reserved != capacity || grown != 4*parts {
			t.Fatalf("parts=%d: checked %d reserved and %d grown ids, want %d and %d",
				parts, reserved, grown, capacity, 4*parts)
		}
	}
}

// TestNewStorePartitionBound: a vertex records its partition in 16 bits, so
// a store takes at most MaxPartitions partitions — the last of them owns its
// vertices like any other — and NewStore panics, naming the value, when
// asked for one more.
func TestNewStorePartitionBound(t *testing.T) {
	s := NewStore(Config{Partitions: MaxPartitions, Capacity: MaxPartitions + 1})
	last := MaxPartitions - 1
	v, err := s.Alloc(last, KindInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int(v.Part) != last || s.PartitionOf(v.ID) != last || s.Snapshot().Vertex(v.ID).Part != last {
		t.Fatalf("v%d in partition %d (PartitionOf %d), want %d", v.ID, v.Part, s.PartitionOf(v.ID), last)
	}
	if w, _ := s.Alloc(0, KindInt, 0); w.Part != 0 || s.PartitionOf(MaxPartitions+1) != 0 {
		t.Fatalf("partition 0's vertices: v%d in %d, id %d in %d", w.ID, w.Part, MaxPartitions+1, s.PartitionOf(MaxPartitions+1))
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "65537 partitions") {
			t.Fatalf("NewStore(MaxPartitions+1) panicked with %q, want the count named", msg)
		}
	}()
	NewStore(Config{Partitions: MaxPartitions + 1})
}

func TestStoreAllocPartitionAffinity(t *testing.T) {
	s := NewStore(Config{Partitions: 4, Capacity: 8})
	v, err := s.Alloc(2, KindHole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Part != 2 {
		t.Fatalf("Part = %d, want 2", v.Part)
	}
}

func TestStoreAllocSteals(t *testing.T) {
	// Partition 0 has all the free vertices; allocating on partition 1 must
	// steal rather than fail.
	s := NewStore(Config{Partitions: 2, Capacity: 0, FixedSize: false})
	// Grow only partition 0's free list by allocating+releasing there.
	v0, err := s.Alloc(0, KindHole, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(v0)

	s2 := NewStore(Config{Partitions: 2, Capacity: 1, FixedSize: true})
	// capacity 1 landed on partition 0 (round robin); alloc on 1 steals it.
	v, err := s2.Alloc(1, KindInt, 1)
	if err != nil {
		t.Fatalf("steal failed: %v", err)
	}
	if v.Part != 0 {
		t.Fatalf("stolen vertex partition = %d, want 0", v.Part)
	}
}

func TestStoreFixedSizeExhaustion(t *testing.T) {
	s := NewStore(Config{Partitions: 1, Capacity: 2, FixedSize: true})
	if _, err := s.Alloc(0, KindInt, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(0, KindInt, 2); err != nil {
		t.Fatal(err)
	}
	_, err := s.Alloc(0, KindInt, 3)
	if !errors.Is(err, ErrNoFreeVertices) {
		t.Fatalf("err = %v, want ErrNoFreeVertices", err)
	}
}

func TestStoreGrowsWhenNotFixed(t *testing.T) {
	s := NewStore(Config{Partitions: 1, Capacity: 1})
	for i := 0; i < 10; i++ {
		if _, err := s.Alloc(0, KindInt, int64(i)); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
}

func TestStoreVertexLookup(t *testing.T) {
	s := NewStore(Config{Partitions: 1, Capacity: 2})
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

func TestStoreConcurrentAllocRelease(t *testing.T) {
	s := NewStore(Config{Partitions: 4, Capacity: 64})
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
	s := NewStore(Config{Partitions: 2, Capacity: 2})
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

// TestStoreConcurrentStealConservation hammers the steal path: every free
// vertex starts on partition 0, while all allocators run on other
// partitions, so every allocation must cross shards. Checks: no id is
// handed out twice, FixedSize never fails while F is non-empty, and |F| is
// conserved exactly once the dust settles.
func TestStoreConcurrentStealConservation(t *testing.T) {
	const parts = 4
	const perG = 300
	// Capacity lands round-robin, so build a store where partition 0 owns
	// everything: allocate all, then release — releases go to the owning
	// partition's shard.
	s := NewStore(Config{Partitions: parts, Capacity: 0})
	var seed []*Vertex
	for i := 0; i < parts*perG; i++ {
		v, err := s.Alloc(0, KindInt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		seed = append(seed, v)
	}
	s.ReleaseBatch(seed)
	if got := s.FreeCount(); got != parts*perG {
		t.Fatalf("seeded FreeCount = %d, want %d", got, parts*perG)
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
}

// TestStoreFixedSizeExhaustionExact asserts the FixedSize contract:
// ErrNoFreeVertices exactly when freeN == 0, including when the last free
// vertices live on a different partition than the allocator.
func TestStoreFixedSizeExhaustionExact(t *testing.T) {
	s := NewStore(Config{Partitions: 3, Capacity: 6, FixedSize: true})
	var got []*Vertex
	// Drain entirely from partition 2: 2 local, 4 stolen.
	for i := 0; i < 6; i++ {
		if want := 6 - i; s.FreeCount() != want {
			t.Fatalf("FreeCount before alloc %d = %d, want %d", i, s.FreeCount(), want)
		}
		v, err := s.Alloc(2, KindInt, int64(i))
		if err != nil {
			t.Fatalf("alloc %d with freeN=%d: %v", i, s.FreeCount(), err)
		}
		got = append(got, v)
	}
	if _, err := s.Alloc(0, KindInt, 9); !errors.Is(err, ErrNoFreeVertices) {
		t.Fatalf("err = %v, want ErrNoFreeVertices at freeN==0", err)
	}
	// One release on any partition makes exactly one Alloc succeed again.
	s.Release(got[3])
	if _, err := s.Alloc(1, KindInt, 9); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
	if _, err := s.Alloc(1, KindInt, 9); !errors.Is(err, ErrNoFreeVertices) {
		t.Fatalf("err = %v, want ErrNoFreeVertices", err)
	}
}

// TestStoreConcurrentFixedChurn runs FixedSize alloc/release churn across
// partitions under the race detector: allocations may transiently fail only
// while other goroutines hold vertices, and the free count must balance.
// Odd partitions give their vertices back two at a time by ReleaseBatch,
// whose per-partition runs the store keeps between calls.
func TestStoreConcurrentFixedChurn(t *testing.T) {
	const parts = 4
	s := NewStore(Config{Partitions: parts, Capacity: parts * 2, FixedSize: true})
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			var batch []*Vertex
			for i := 0; i < 500; i++ {
				v, err := s.Alloc(part, KindInt, int64(i))
				if err != nil {
					// Legal only because siblings hold vertices; F must
					// really have been exhaustible.
					continue
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
	if got := s.Len(); got != parts*2 {
		t.Fatalf("Len = %d, want %d (FixedSize must not grow)", got, parts*2)
	}
}

func TestReleaseBatch(t *testing.T) {
	s := NewStore(Config{Partitions: 3, Capacity: 9})
	// Allocate everything, interleaving partitions.
	var vs []*Vertex
	for i := 0; i < 9; i++ {
		v, err := s.Alloc(i%3, KindInt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	if got := s.FreeCount(); got != 0 {
		t.Fatalf("FreeCount = %d, want 0", got)
	}
	// Release a non-contiguous mix (partitions interleaved: exercises the
	// one-pass-per-partition logic against double releases).
	batch := []*Vertex{vs[0], vs[1], vs[3], vs[2], vs[6], vs[4]}
	s.ReleaseBatch(batch)
	if got := s.FreeCount(); got != len(batch) {
		t.Fatalf("FreeCount = %d, want %d", got, len(batch))
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
	if got := s.FreeCount(); got != 0 {
		t.Fatalf("FreeCount = %d, want 0 after re-allocating batch", got)
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
		s := NewStore(Config{Partitions: 2, Capacity: 4, Serial: serial})
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
		if n != 4 {
			t.Fatalf("serial=%v: FreeCount = %d after releasing all, want 4", serial, n)
		}
	}
}

func TestSnapshot(t *testing.T) {
	s := NewStore(Config{Partitions: 2, Capacity: 4})
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
