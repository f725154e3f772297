package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// dealModel is the dealing rule written out plainly, the reference the
// store must reproduce: each partition holds a stack of released ids and
// the ids of the block it was dealt last that it has not handed out yet.
// Alloc pops the stack, else takes the block's lowest id, else deals the
// partition the next 64 ids of V.
type dealModel struct {
	stacks [][]VertexID
	rest   [][]VertexID // ascending
	partOf map[VertexID]int
	n      int
}

func newDealModel(parts int) *dealModel {
	return &dealModel{stacks: make([][]VertexID, parts), rest: make([][]VertexID, parts),
		partOf: make(map[VertexID]int)}
}

func (m *dealModel) alloc(part int) VertexID {
	if st := m.stacks[part]; len(st) > 0 {
		m.stacks[part] = st[:len(st)-1]
		return st[len(st)-1]
	}
	if len(m.rest[part]) == 0 {
		for i := 0; i < segSize; i++ {
			m.n++
			m.partOf[VertexID(m.n)] = part
			m.rest[part] = append(m.rest[part], VertexID(m.n))
		}
	}
	id := m.rest[part][0]
	m.rest[part] = m.rest[part][1:]
	return id
}

func (m *dealModel) release(id VertexID) {
	part := m.partOf[id]
	m.stacks[part] = append(m.stacks[part], id)
}

func (m *dealModel) freeCountOf(part int) int { return len(m.stacks[part]) + len(m.rest[part]) }

// TestStoreMatchesEagerAllocator drives random Alloc / Release /
// ReleaseBatch traces against the dealing model — skewed to one partition,
// so partitions run dry at different rates and blocks are dealt to them out
// of turn — and requires the same id, owned by the partition that asked,
// the same Len, FreeCount and FreeCountOf, and a ForEach that visits
// exactly the ids not in F, ascending, after every operation. cap is the
// store's Capacity, which sizes its first directory and must change
// nothing else. With fixed set, the trace holds at most cap vertices at
// once, so the store stops growing and every allocation recycles.
func TestStoreMatchesEagerAllocator(t *testing.T) {
	for _, parts := range []int{1, 3, 4, 8} {
		for _, capacity := range []int{0, 1, 5, 37, 200} {
			for _, fixed := range []bool{false, true} {
				if fixed && capacity == 0 {
					continue
				}
				name := fmt.Sprintf("parts=%d/cap=%d/fixed=%v", parts, capacity, fixed)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						runAllocatorTrace(t, parts, capacity, fixed, seed)
					}
				})
			}
		}
	}
}

func runAllocatorTrace(t *testing.T, parts, capacity int, fixed bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewStore(Config{Partitions: parts, Capacity: capacity})
	m := newDealModel(parts)
	var live []*Vertex

	compare := func(step int, op string) {
		t.Helper()
		free := 0
		for p := 0; p < parts; p++ {
			got, want := s.FreeCountOf(p), m.freeCountOf(p)
			if got != want {
				t.Fatalf("seed %d step %d (%s): FreeCountOf(%d) = %d, model %d", seed, step, op, p, got, want)
			}
			free += want
		}
		if got := s.FreeCount(); got != free {
			t.Fatalf("seed %d step %d (%s): FreeCount = %d, model %d", seed, step, op, got, free)
		}
		if got, want := s.Len(), m.n; got != want {
			t.Fatalf("seed %d step %d (%s): Len = %d, model %d", seed, step, op, got, want)
		}
		inUse := make([]VertexID, 0, len(live))
		for _, v := range live {
			inUse = append(inUse, v.ID)
		}
		slices.Sort(inUse)
		var visited []VertexID
		s.ForEach(func(v *Vertex) { visited = append(visited, v.ID) })
		if !slices.Equal(visited, inUse) {
			t.Fatalf("seed %d step %d (%s): ForEach visited %v, want the ids not in F %v", seed, step, op, visited, inUse)
		}
	}
	compare(0, "new")

	// Phases alternate between filling and draining so the trace visits
	// both empty free lists and mostly released ones.
	for step := 1; step <= 1500; step++ {
		allocBias := 70
		if (step/250)%2 == 1 {
			allocBias = 30
		}
		switch r := rng.Intn(100); {
		case (r < allocBias || len(live) == 0) && !(fixed && len(live) >= capacity):
			part := rng.Intn(parts)
			if rng.Intn(3) > 0 {
				part = 0 // skew: one partition runs dry first
			}
			want := m.alloc(part)
			v, err := s.Alloc(part, KindInt, int64(step))
			if err != nil {
				t.Fatalf("seed %d step %d: Alloc(%d): %v; model hands out %d", seed, step, part, err, want)
			}
			if v.ID != want || int(v.Part) != part || s.PartitionOf(v.ID) != part {
				t.Fatalf("seed %d step %d: Alloc(%d) = id %d part %d (PartitionOf %d), model id %d",
					seed, step, part, v.ID, v.Part, s.PartitionOf(v.ID), want)
			}
			live = append(live, v)
			compare(step, "alloc")
		case r < 90:
			i := rng.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			m.release(v.ID)
			s.Release(v)
			compare(step, "release")
		default:
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			k := rng.Intn(len(live) + 1)
			batch := live[len(live)-k:]
			live = live[:len(live)-k]
			for _, v := range batch {
				m.release(v.ID)
			}
			s.ReleaseBatch(batch)
			compare(step, "release-batch")
		}
	}
	// A partition asks for a block only when every id it holds is live, so
	// with at most capacity live it holds at most capacity/64+1 blocks.
	if fixed && s.Len() > parts*(capacity/segSize+1)*segSize {
		t.Fatalf("seed %d: Len %d with at most %d vertices live at once", seed, s.Len(), capacity)
	}
}

// TestStoreGrowsPastCapacity: Capacity sizes the first directory and
// nothing else. A store allocated past it doubles its directory and goes on
// dealing blocks to the partition that asks; every vertex, dealt before the
// doubling or after, is counted by Len, visited by the iterators, in the
// snapshot, and recycled through its owner's shard.
func TestStoreGrowsPastCapacity(t *testing.T) {
	const parts = 3
	capacity := firstDirSegments*segSize + 5 // a first directory of 33 segments
	total := capacity + 2*segSize
	s := NewStore(Config{Partitions: parts, Capacity: capacity})
	var vs []*Vertex
	for i := 0; i < total; i++ {
		v, err := s.Alloc(2, KindInt, int64(i))
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if want := VertexID(i + 1); v.ID != want || v.Part != 2 {
			t.Fatalf("vertex %d = id %d part %d, want id %d part 2", i, v.ID, v.Part, want)
		}
		vs = append(vs, v)
	}
	blocks := (total + segMask) / segSize
	if got := len(*s.dir.Load()); got != 2*(firstDirSegments+1) {
		t.Fatalf("directory of %d entries after %d blocks, want the first 33 doubled", got, blocks)
	}
	if s.Len() != blocks*segSize || s.FreeCount() != s.Len()-total {
		t.Fatalf("Len %d FreeCount %d, want %d and %d", s.Len(), s.FreeCount(), blocks*segSize, blocks*segSize-total)
	}
	visited := 0
	s.ForEach(func(v *Vertex) {
		visited++
		if v.Kind != KindInt {
			t.Errorf("vertex %d is %v, want a live int", v.ID, v.Kind)
		}
	})
	if visited != total {
		t.Fatalf("ForEach visited %d vertices, want %d", visited, total)
	}
	if snap := s.Snapshot(); snap.Len() != s.Len() || snap.Vertex(VertexID(total)).Part != 2 {
		t.Fatalf("snapshot len %d, last %+v", snap.Len(), snap.Vertex(VertexID(total)))
	}

	s.ReleaseBatch(vs)
	if s.FreeCount() != s.Len() || s.FreeCountOf(2) != s.Len() {
		t.Fatalf("after release: FreeCount %d, FreeCountOf(2) %d, want both Len %d", s.FreeCount(), s.FreeCountOf(2), s.Len())
	}
	s.ForEach(func(v *Vertex) { t.Errorf("ForEach visited v%d, which is back in F", v.ID) })
	if v, err := s.Alloc(0, KindInt, 0); err != nil || v.Part != 0 || s.Len() != (blocks+1)*segSize {
		t.Fatalf("alloc on a partition with no free vertex = %v, %v; Len %d, want a fresh block of its own", v, err, s.Len())
	}
}

// TestSnapshotKeepsReleasedGrownVertices: ForEach does not visit a free
// vertex, so Snapshot must say on its own that a vertex released again is a
// free vertex of the partition it was dealt to — not an absent one.
func TestSnapshotKeepsReleasedGrownVertices(t *testing.T) {
	const parts = 4
	s := NewStore(Config{Partitions: parts})
	var released []*Vertex
	for i := 0; i < segSize+6; i++ { // into a second block
		v, err := s.Alloc(3, KindInt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			released = append(released, v)
		}
	}
	s.ReleaseBatch(released[:len(released)/2])
	for _, v := range released[len(released)/2:] {
		s.Release(v)
	}
	snap := s.Snapshot()
	if snap.Len() != 2*segSize {
		t.Fatalf("snapshot len = %d, want %d", snap.Len(), 2*segSize)
	}
	for _, v := range released {
		if sv := snap.Vertex(v.ID); sv == nil || sv.ID != v.ID || sv.Kind != KindFree || sv.Part != 3 {
			t.Fatalf("released vertex %d reads %+v in the snapshot, want free on partition 3", v.ID, sv)
		}
	}
	for id := 1; id <= snap.Len(); id++ {
		if sv := snap.Vertex(VertexID(id)); sv == nil || (sv.Kind == KindFree) != s.IsFree(sv.ID) || sv.Part != 3 {
			t.Fatalf("snapshot vertex %d = %+v disagrees with the store", id, sv)
		}
	}
}

// TestNeverUsedVerticesStayUnmaterialised: the ids of a dealt block that no
// Alloc has handed out yet are free vertices of its partition, and the
// oracle's view of F, IsFree and PartitionOf say so; an id past V is
// neither free nor owned, and looking one up materialises nothing.
func TestNeverUsedVerticesStayUnmaterialised(t *testing.T) {
	s := NewStore(Config{Partitions: 4})
	if _, err := s.Alloc(1, KindInt, 6); err != nil {
		t.Fatal(err)
	}
	v, err := s.Alloc(2, KindInt, 7)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Len() != 2*segSize {
		t.Fatalf("snapshot len = %d, want two blocks, %d", snap.Len(), 2*segSize)
	}
	free := 0
	for id := 1; id <= snap.Len(); id++ {
		sv := snap.Vertex(VertexID(id))
		if sv == nil || sv.ID != VertexID(id) || sv.Part != 1+(id-1)/segSize {
			t.Fatalf("snapshot vertex %d = %+v", id, sv)
		}
		if sv.Kind == KindFree {
			free++
		}
	}
	if free != snap.Len()-2 || snap.Vertex(v.ID).Kind != KindInt {
		t.Fatalf("%d free in snapshot, want %d; allocated vertex = %+v", free, snap.Len()-2, snap.Vertex(v.ID))
	}
	if !s.IsFree(5) || s.PartitionOf(5) != 1 || s.PartitionOf(segSize+5) != 2 {
		t.Fatalf("never-used id: IsFree(5)=%v PartitionOf(5)=%d PartitionOf(%d)=%d; want true, 1, 2",
			s.IsFree(5), s.PartitionOf(5), segSize+5, s.PartitionOf(segSize+5))
	}
	past := VertexID(2*segSize + 1)
	if s.IsFree(NilVertex) || s.IsFree(past) || s.PartitionOf(past) != 0 || s.Vertex(past) != nil {
		t.Fatal("ids outside V must be neither free nor owned")
	}
	if got := materialised(s); len(got) != 2 {
		t.Fatalf("segments %v materialised after two blocks, a Snapshot and lookups, want two", got)
	}
}

// materialised returns the indices of the segments s has materialised.
func materialised(s *Store) []int {
	var idx []int
	dir := *s.dir.Load()
	for i := range dir {
		if dir[i].Load() != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestSegmentsComeInChunks pins how the arena is laid out. The first
// directory, made with the first block, spans firstDirSegments segments and
// is not copied until a block falls past its end, when it doubles. A
// partition's blocks come in chunks of 1, 2, 4, then 8 segments side by
// side in memory, and a chunk's spare segments stay unpublished until they
// are dealt.
func TestSegmentsComeInChunks(t *testing.T) {
	const parts, blocks = 4, 20 // partition 1's blocks
	s := NewStore(Config{Partitions: parts, Serial: true})
	alloc := func(part int) *Vertex {
		t.Helper()
		v, err := s.Alloc(part, KindInt, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	alloc(0)
	dir := s.dir.Load()
	if len(*dir) != firstDirSegments {
		t.Fatalf("first Alloc left a directory of %d entries, want %d", len(*dir), firstDirSegments)
	}

	// Partition 1 is dealt every block after partition 0's.
	var reached []*segment
	chunkStart := map[int]bool{0: true, 1: true, 3: true, 7: true, 15: true}
	for j := range blocks {
		v := alloc(1)
		if want := VertexID((j+1)*segSize + 1); v.ID != want {
			t.Fatalf("partition 1's block %d starts at v%d, want v%d", j, v.ID, want)
		}
		seg := (*dir)[j+1].Load()
		if j > 0 {
			prev := uintptr(unsafe.Pointer(reached[j-1]))
			if next := prev + unsafe.Sizeof(segment{}); (uintptr(unsafe.Pointer(seg)) == next) == chunkStart[j] {
				t.Fatalf("partition 1's block %d at %#x, after %#x: want a new chunk %v", j,
					uintptr(unsafe.Pointer(seg)), prev, chunkStart[j])
			}
		}
		reached = append(reached, seg)
		if got := materialised(s); len(got) != j+2 { // and partition 0's block
			t.Fatalf("after partition 1 reached %d blocks, segments %v are published", j+1, got)
		}
		for range segSize - 1 {
			alloc(1)
		}
	}
	if spare := len(s.chunks[1].spare); spare != 1+2+4+8+8-blocks {
		t.Fatalf("partition 1 has %d spare segments after %d blocks from chunks of 1, 2, 4, 8 and 8", spare, blocks)
	}
	// A snapshot and lookups publish no spare segment.
	before := len(materialised(s))
	if snap := s.Snapshot(); snap.Len() != (blocks+1)*segSize {
		t.Fatalf("snapshot len %d, want %d", snap.Len(), (blocks+1)*segSize)
	}
	for id := VertexID(1); int(id) <= 2*s.Len(); id += segSize / 2 {
		s.Vertex(id)
		s.IsFree(id)
		s.PartitionOf(id)
	}
	if got := materialised(s); len(got) != before {
		t.Fatalf("a Snapshot and lookups took %d published segments to %d", before, len(got))
	}

	// Partition 2's blocks fill the directory and fall past it.
	for range (firstDirSegments - 1 - blocks) * segSize {
		alloc(2)
	}
	if s.dir.Load() != dir {
		t.Fatal("the directory was copied before a block fell past its end")
	}
	alloc(2)
	if got := len(*s.dir.Load()); got != 2*firstDirSegments {
		t.Fatalf("directory of %d entries after a block past %d, want it doubled", got, firstDirSegments)
	}
	for id := VertexID(1); int(id) <= s.Len(); id++ {
		if v := s.Vertex(id); v == nil || v.ID != id || v.Part != uint16(s.PartitionOf(id)) {
			t.Fatalf("Vertex(%d) = %+v", id, v)
		}
	}
}

// TestReservedIdsDealtInBlocks pins the dealing rule whatever Capacity,
// the ids a store's first directory reserves room for, says: blocks of 64
// consecutive ids, one segment each, are dealt in ascending order to the
// partitions in the order their free lists run dry; a partition hands out
// a block's ids lowest first, and only then asks for another; and the
// segment of a block holds its partition's vertices and no other's. The
// id sequence is the one a store of Capacity 0 deals.
func TestReservedIdsDealtInBlocks(t *testing.T) {
	for _, capacity := range []int{5, 37, 200, 4096, 65535, 65536} {
		for _, parts := range []int{1, 3, 4, 8} {
			t.Run(fmt.Sprintf("cap=%d/parts=%d", capacity, parts), func(t *testing.T) {
				s := NewStore(Config{Partitions: parts, Capacity: capacity})
				ref := NewStore(Config{Partitions: parts})
				next := make([]VertexID, parts) // the partition's next id, NilVertex when dry
				for round := 0; round < 4; round++ {
					for p := 0; p < parts; p++ {
						for range 1 + (round*37+p*13)%(2*segSize) {
							n := s.Len()
							v, err := s.Alloc(p, KindInt, 0)
							if err != nil {
								t.Fatal(err)
							}
							w, _ := ref.Alloc(p, KindInt, 0)
							want := next[p]
							if want == NilVertex {
								want = VertexID(n + 1) // dry: the next block
							}
							if v.ID != want || w.ID != want || v.Part != uint16(p) {
								t.Fatalf("Alloc(%d) = v%d of partition %d (Capacity 0: v%d), want v%d",
									p, v.ID, v.Part, w.ID, want)
							}
							if next[p] = v.ID + 1; v.ID%segSize == 0 {
								next[p] = NilVertex
							}
						}
					}
				}
				if got, want := len(*s.dir.Load()), max(firstDirSegments, (capacity+segMask)/segSize); got < want {
					t.Fatalf("directory of %d entries, want at least the %d Capacity spans", got, want)
				}
				for id := VertexID(1); int(id) <= s.Len(); id++ {
					first := s.Vertex((id-1)&^segMask + 1)
					if v := s.Vertex(id); v.ID != id || v.Part != first.Part || s.PartitionOf(id) != int(first.Part) {
						t.Fatalf("v%d of partition %d sits in a block of partition %d", id, v.Part, first.Part)
					}
				}
			})
		}
	}
}

// TestStoreConcurrentMaterialise races, for the race detector, everything
// that can meet a block being dealt or an in-use bit changing: allocators on
// every partition taking fresh blocks, a churner releasing ids that share
// bitmap words with theirs, readers looking up ids the moment they are
// published, and sweeps — each of which must visit, in ascending order,
// every vertex an allocator had labelled before the sweep began. Each
// allocator is dealt 11 blocks, across its chunks of 1, 2, 4 and 4
// segments, 44 in all, so the first directory of 32 is copied and doubled
// under the readers. It is sized to run under -short, so CI's race step
// covers it.
func TestStoreConcurrentMaterialise(t *testing.T) {
	const parts = 4
	perPart := 11 * segSize
	s := NewStore(Config{Partitions: parts})

	// ids[p][:done[p]] are allocator p's vertices, labelled and never released.
	ids := make([][]VertexID, parts)
	done := make([]atomic.Int64, parts)
	var allocators, observers sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < parts; p++ {
		ids[p] = make([]VertexID, perPart)
		allocators.Add(1)
		go func(part int) {
			defer allocators.Done()
			for i := 0; i < perPart; i++ {
				v, err := s.Alloc(part, KindInt, int64(part))
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				ids[part][i] = v.ID
				done[part].Store(int64(i + 1))
			}
		}(p)
	}
	observers.Add(3)
	go func() { // churn: set and clear bits beside the allocators' own
		defer observers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v, err := s.Alloc(i%parts, KindInt, -1)
			if err != nil {
				t.Errorf("churn alloc: %v", err)
				return
			}
			s.Release(v)
		}
	}()
	go func() { // lookups of published ids
		defer observers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := i % parts
			n := int(done[p].Load())
			if n == 0 {
				continue
			}
			id := ids[p][i%n]
			v := s.Vertex(id)
			if v == nil || v.ID != id {
				t.Errorf("Vertex(%d) = %v", id, v)
				return
			}
			v.Lock()
			kind := v.Kind
			v.Unlock()
			if kind != KindInt {
				t.Errorf("published vertex %d is %v", id, kind)
				return
			}
		}
	}()
	go func() { // sweeps
		defer observers.Done()
		var visited map[VertexID]bool
		labelled := make([]int64, parts)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for p := range done {
				labelled[p] = done[p].Load()
			}
			visited = make(map[VertexID]bool, len(visited))
			prev := NilVertex
			s.ForEach(func(v *Vertex) {
				v.Lock()
				if v.ID <= prev || (v.Kind != KindFree && v.Kind != KindInt) {
					t.Errorf("ForEach: vertex %d (%v) after %d", v.ID, v.Kind, prev)
				}
				prev = v.ID
				v.Unlock()
				visited[v.ID] = true
			})
			for p, n := range labelled {
				for _, id := range ids[p][:n] {
					if !visited[id] {
						t.Errorf("ForEach missed v%d, labelled by partition %d before the sweep began", id, p)
						return
					}
				}
			}
		}
	}()
	allocators.Wait()
	close(stop)
	observers.Wait()

	live := 0
	s.ForEach(func(v *Vertex) {
		if v.Kind == KindInt {
			live++
		}
	})
	if live != parts*perPart || s.FreeCount() != s.Len()-live {
		t.Fatalf("ForEach found %d live vertices, FreeCount %d of %d; want %d and the rest",
			live, s.FreeCount(), s.Len(), parts*perPart)
	}
	if n := len(*s.dir.Load()); n < 2*firstDirSegments {
		t.Fatalf("directory of %d entries, want the first %d doubled: the store dealt past it",
			n, firstDirSegments)
	}
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoreCostsWhatItTouches pins the point of the lazy arena: building a
// store is a handful of small allocations, and a program of a few hundred
// vertices pays for the blocks it was dealt. The program reads 66 KiB: 10
// segments in Go's size classes, the 7 of partition 0's first three chunks
// (6 528, 13 568 and 27 264 bytes) and one on each other partition, and the
// 256-byte first directory; the bound sits ~15 % above. At 120 bytes a
// vertex the same program read 80 KiB.
func TestStoreCostsWhatItTouches(t *testing.T) {
	cfg := Config{Partitions: 4}
	var s *Store
	if n := testing.AllocsPerRun(10, func() { s = NewStore(cfg) }); n > 8 {
		t.Errorf("NewStore makes %v allocations, want a constant handful", n)
	}
	if b := allocatedBytes(func() { s = NewStore(cfg) }); b >= 1<<10 {
		t.Errorf("NewStore allocates %d bytes, want < 1 KiB", b)
	}

	// A 300-vertex program: built on partition 0, a little traffic on the
	// others, one sweep over it.
	b := allocatedBytes(func() {
		s = NewStore(cfg)
		for i := 0; i < 300; i++ {
			part := 0
			if i%10 == 9 {
				part = 1 + i%3
			}
			if _, err := s.Alloc(part, KindInt, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		visited := 0
		s.ForEach(func(*Vertex) { visited++ })
		if visited != 300 {
			t.Errorf("a sweep over a 300-vertex program visited %d slots, want exactly the 300 in use", visited)
		}
	})
	t.Logf("a 300-vertex program: %d KiB", b>>10)
	if b >= 76<<10 {
		t.Errorf("a 300-vertex program allocates %d KiB, want < 76 KiB", b>>10)
	}
}
