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
	capacity := firstDirEntries*subSize + 5 // a first directory of 9 blocks, 36 entries
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
	if got := len(*s.dir.Load()); got != 2*(firstDirEntries+subPerSeg) {
		t.Fatalf("directory of %d entries after %d blocks, want the first 36 doubled", got, blocks)
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
		t.Fatalf("sub-blocks %v backed after two blocks, a Snapshot and lookups, want two", got)
	}
}

// materialised returns the directory indices of the sub-blocks s has backed.
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

// TestSubBlocksComeInChunks pins how the arena is laid out. The first
// directory, made with the first block, spans firstDirEntries sub-blocks
// and is not copied until a block falls past its end, when it doubles. A
// sub-block is published when its partition's cursor enters it, and not
// before: the entries published are exactly the sub-blocks of the ids handed
// out. Sub-blocks come from one chunk sequence shared by every partition,
// of 4, 8, then 16 side by side in memory, in the order they are backed,
// and a chunk's spare sub-blocks stay unpublished until they are backed.
func TestSubBlocksComeInChunks(t *testing.T) {
	const parts = 4
	s := NewStore(Config{Partitions: parts, Serial: true})
	entered := make(map[VertexID]bool) // (id-1)>>subBits of every id handed out
	var backed []*subBlock             // in the order they were published
	alloc := func(part int) *Vertex {
		t.Helper()
		v, err := s.Alloc(part, KindInt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e := (v.ID - 1) >> subBits; !entered[e] {
			entered[e] = true
			backed = append(backed, (*s.dir.Load())[e].Load())
		}
		if got := materialised(s); len(got) != len(entered) {
			t.Fatalf("after v%d of partition %d: entries %v published, want the %d sub-blocks entered",
				v.ID, part, got, len(entered))
		}
		return v
	}
	alloc(0)
	dir := s.dir.Load()
	if len(*dir) != firstDirEntries {
		t.Fatalf("first Alloc left a directory of %d entries, want %d", len(*dir), firstDirEntries)
	}

	// The partitions take turns, each handing out a different count, so
	// their cursors enter sub-blocks out of id order and blocks are dealt
	// out of turn.
	for round := range 6 {
		for p := range parts {
			for range 1 + (round*29+p*11)%40 {
				alloc(p)
			}
		}
	}
	chunkStart := map[int]bool{0: true}
	for k, size := 0, MinChunk; k < len(backed); size = min(2*size, MaxChunk) {
		k += size
		chunkStart[k] = true
	}
	for k := 1; k < len(backed); k++ {
		prev, sb := uintptr(unsafe.Pointer(backed[k-1])), uintptr(unsafe.Pointer(backed[k]))
		if (sb == prev+unsafe.Sizeof(subBlock{})) == chunkStart[k] {
			t.Fatalf("sub-block %d backed at %#x, after %#x: want a new chunk %v", k, sb, prev, chunkStart[k])
		}
	}
	for k, size := 0, MinChunk; ; size = min(2*size, MaxChunk) {
		if k += size; k >= len(backed) {
			if len(s.spare) != k-len(backed) {
				t.Fatalf("%d spare sub-blocks after %d backed, want %d", len(s.spare), len(backed), k-len(backed))
			}
			break
		}
	}

	// A snapshot and lookups publish no spare sub-block.
	before := len(materialised(s))
	if snap := s.Snapshot(); snap.Len() != s.Len() {
		t.Fatalf("snapshot len %d, want %d", snap.Len(), s.Len())
	}
	for id := VertexID(1); int(id) <= 2*s.Len(); id += subSize / 2 {
		s.Vertex(id)
		s.IsFree(id)
		s.PartitionOf(id)
		s.InUse(min(id, VertexID(s.Len())))
	}
	if got := materialised(s); len(got) != before {
		t.Fatalf("a Snapshot and lookups took %d published sub-blocks to %d", before, len(got))
	}

	// Partition 2's blocks fill the directory and fall past it.
	for s.Len() < firstDirEntries*subSize {
		for range segSize {
			alloc(2)
		}
	}
	if s.dir.Load() != dir {
		t.Fatal("the directory was copied before a block fell past its end")
	}
	for n := s.Len(); s.Len() == n; {
		alloc(2)
	}
	if got := len(*s.dir.Load()); got != 2*firstDirEntries {
		t.Fatalf("directory of %d entries after a block past %d, want it doubled", got, firstDirEntries)
	}
	for id := VertexID(1); int(id) <= s.Len(); id++ {
		if v := s.Vertex(id); (v != nil) != entered[(id-1)>>subBits] || v != nil && (v.ID != id || v.Part != uint16(s.PartitionOf(id))) {
			t.Fatalf("Vertex(%d) = %+v, its sub-block entered %v", id, v, entered[(id-1)>>subBits])
		}
	}
}

// TestPartitionPaysForWhatItHandsOut: a partition that hands out 3 ids
// backs one sub-block of its block, one that hands out 17 backs two, and
// the ids it was dealt but did not hand out cost nothing — yet count in V
// and F, read as free, and belong to it.
func TestPartitionPaysForWhatItHandsOut(t *testing.T) {
	s := NewStore(Config{Partitions: 2})
	for i := range 3 + 17 {
		part := 0
		if i >= 3 {
			part = 1
		}
		if _, err := s.Alloc(part, KindInt, 0); err != nil {
			t.Fatal(err)
		}
	}
	backed := make([]int, 2)
	for _, e := range materialised(s) {
		backed[(*s.dir.Load())[e].Load().verts[0].Part]++
	}
	if backed[0] != 1 || backed[1] != 2 {
		t.Fatalf("partitions backed %v sub-blocks, want [1 2] for 3 and 17 ids handed out", backed)
	}
	if s.Len() != 2*segSize || s.FreeCountOf(0) != segSize-3 || s.FreeCountOf(1) != segSize-17 {
		t.Fatalf("Len %d FreeCountOf %d/%d, want two blocks with 3 and 17 out", s.Len(), s.FreeCountOf(0), s.FreeCountOf(1))
	}
	for id := VertexID(1); int(id) <= s.Len(); id++ {
		part, out := 0, VertexID(3)
		if id > segSize {
			part, out = 1, segSize+17
		}
		if s.PartitionOf(id) != part || s.IsFree(id) != (id > out) || s.InUse(id) != (id <= out) {
			t.Fatalf("v%d: PartitionOf %d IsFree %v InUse %v, want %d %v %v",
				id, s.PartitionOf(id), s.IsFree(id), s.InUse(id), part, id > out, id <= out)
		}
	}
	if ids, subs := s.Backing(); ids != 20 || subs != 3 {
		t.Fatalf("Backing() = %d ids handed out, %d sub-blocks; want 20 and 3", ids, subs)
	}
	// 11 more of partition 1's ids, all in its second sub-block.
	if n := testing.AllocsPerRun(10, func() { s.Alloc(1, KindInt, 0) }); n != 0 {
		t.Errorf("an Alloc inside a backed sub-block makes %v allocations", n)
	}
}

// TestReservedIdsDealtInBlocks pins the dealing rule whatever Capacity,
// the ids a store's first directory reserves room for, says: blocks of 64
// consecutive ids are dealt in ascending order to the partitions in the
// order their free lists run dry; a partition hands out a block's ids
// lowest first, and only then asks for another; every id of a block is its
// partition's, and exactly the sub-blocks a cursor entered have vertices.
// The id sequence is the one a store of Capacity 0 deals.
func TestReservedIdsDealtInBlocks(t *testing.T) {
	for _, capacity := range []int{5, 37, 200, 4096, 65535, 65536} {
		for _, parts := range []int{1, 3, 4, 8} {
			t.Run(fmt.Sprintf("cap=%d/parts=%d", capacity, parts), func(t *testing.T) {
				s := NewStore(Config{Partitions: parts, Capacity: capacity})
				ref := NewStore(Config{Partitions: parts})
				next := make([]VertexID, parts)    // the partition's next id, NilVertex when dry
				entered := make(map[VertexID]bool) // (id-1)>>subBits of every id handed out
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
							entered[(v.ID-1)>>subBits] = true
						}
					}
				}
				if got, want := len(*s.dir.Load()), max(firstDirEntries, (capacity+segMask)/segSize*subPerSeg); got < want {
					t.Fatalf("directory of %d entries, want at least the %d Capacity spans", got, want)
				}
				for id := VertexID(1); int(id) <= s.Len(); id++ {
					first := s.Vertex((id-1)&^segMask + 1)
					v := s.Vertex(id)
					if (v != nil) != entered[(id-1)>>subBits] {
						t.Fatalf("Vertex(%d) = %v, but a cursor entered its sub-block: %v", id, v, entered[(id-1)>>subBits])
					}
					if v != nil && (v.ID != id || v.Part != first.Part) || s.PartitionOf(id) != int(first.Part) {
						t.Fatalf("v%d of partition %d (%+v) sits in a block of partition %d", id, s.PartitionOf(id), v, first.Part)
					}
				}
			})
		}
	}
}

// TestStoreConcurrentMaterialise races, for the race detector, everything
// that can meet a block being dealt, a sub-block being backed or an in-use
// bit changing: allocators on every partition taking fresh blocks and
// crossing into their later sub-blocks, a churner releasing ids that share
// in-use words with theirs, readers looking up ids the moment they are
// published, renormalising passes and snapshots, and sweeps — each of which
// must visit, in ascending order, every vertex an allocator had labelled
// before the sweep began. Each allocator is dealt 11 blocks and backs their
// 44 sub-blocks, from chunks shared with the others, and the 44 blocks
// double the first directory of 32 entries three times under the readers.
// It is sized to run under -short, so CI's race step covers it.
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
	observers.Add(5)
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
	go func() { // renormalising passes, at counters that never move
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Renormalise(FreshAllocEpoch-2, FreshAllocEpoch-2)
		}
	}()
	go func() { // snapshots: every id of V, backed or not, is in one
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Snapshot()
			for id := 1; id <= snap.Len(); id++ {
				if sv := snap.Vertex(VertexID(id)); sv == nil || sv.Kind != KindFree && sv.Kind != KindInt {
					t.Errorf("snapshot vertex %d = %+v", id, sv)
					return
				}
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
	if n := len(*s.dir.Load()); n < 2*firstDirEntries {
		t.Fatalf("directory of %d entries, want the first %d doubled: the store dealt past it",
			n, firstDirEntries)
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
// vertices pays for the vertices it handed out. The program reads 47 KiB:
// 20 sub-blocks, 17 on partition 0 and one on each other partition, cut
// from the store's first three chunks of 4, 8 and 16 (the 6 528, 13 568 and
// 27 264-byte size classes), and the 256-byte first directory; the bound
// sits ~15 % above. When each partition paid for whole 64-vertex blocks the
// same program read 66 KiB, and 80 KiB at 120 bytes a vertex.
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
	if b >= 54<<10 {
		t.Errorf("a 300-vertex program allocates %d KiB, want < 54 KiB", b>>10)
	}
}
