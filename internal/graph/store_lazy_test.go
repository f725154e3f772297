package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// eagerModel is the allocator the store used to be, kept here as the
// reference: construction pushes ids 1..capacity onto explicit
// per-partition stacks, dealt in blocks of the store's size B (ids
// kB+1..kB+B to partition k mod parts), Alloc pops the local stack, then
// steals in ring order, then grows. The golden schedule digests and the checked-in replay
// logs were recorded against the id sequence it produces, so the lazy store
// must reproduce it exactly.
type eagerModel struct {
	shards [][]VertexID
	partOf map[VertexID]int
	n      int
	fixed  bool
}

func newEagerModel(parts, capacity, block int, fixed bool) *eagerModel {
	m := &eagerModel{shards: make([][]VertexID, parts), partOf: make(map[VertexID]int), fixed: fixed}
	for i := 0; i < capacity; i++ {
		part := i / block % parts
		m.shards[part] = append(m.shards[part], m.grow(part))
	}
	return m
}

func (m *eagerModel) grow(part int) VertexID {
	m.n++
	m.partOf[VertexID(m.n)] = part
	return VertexID(m.n)
}

func (m *eagerModel) pop(part int) (VertexID, bool) {
	sh := m.shards[part]
	if len(sh) == 0 {
		return NilVertex, false
	}
	m.shards[part] = sh[:len(sh)-1]
	return sh[len(sh)-1], true
}

func (m *eagerModel) alloc(part int) (VertexID, bool) {
	for off := 0; off < len(m.shards); off++ {
		if id, ok := m.pop((part + off) % len(m.shards)); ok {
			return id, true
		}
	}
	if m.fixed {
		return NilVertex, false
	}
	return m.grow(part), true
}

func (m *eagerModel) release(id VertexID) {
	part := m.partOf[id]
	m.shards[part] = append(m.shards[part], id)
}

func (m *eagerModel) freeCount() int {
	n := 0
	for _, sh := range m.shards {
		n += len(sh)
	}
	return n
}

// TestStoreMatchesEagerAllocator drives random Alloc / Release /
// ReleaseBatch traces — small capacities, so local shards run dry and the
// steal and growth paths are hit constantly — against the eager model and
// requires the same id (or the same exhaustion), the same owner, the same
// FreeCount / FreeCountOf, and a ForEach that visits exactly the ids not in
// F, ascending, after every operation (grown ids included: the stores that
// are not FixedSize grow past Capacity).
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
	s := NewStore(Config{Partitions: parts, Capacity: capacity, FixedSize: fixed})
	m := newEagerModel(parts, capacity, 1<<s.blockBits, fixed)
	var live []*Vertex

	compare := func(step int, op string) {
		t.Helper()
		if got, want := s.FreeCount(), m.freeCount(); got != want {
			t.Fatalf("seed %d step %d (%s): FreeCount = %d, model %d", seed, step, op, got, want)
		}
		if got, want := s.Len(), m.n; got != want {
			t.Fatalf("seed %d step %d (%s): Len = %d, model %d", seed, step, op, got, want)
		}
		for p := 0; p < parts; p++ {
			if got, want := s.FreeCountOf(p), len(m.shards[p]); got != want {
				t.Fatalf("seed %d step %d (%s): FreeCountOf(%d) = %d, model %d", seed, step, op, p, got, want)
			}
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
	// both an exhausted F and a mostly released one.
	for step := 1; step <= 1500; step++ {
		allocBias := 70
		if (step/250)%2 == 1 {
			allocBias = 30
		}
		switch r := rng.Intn(100); {
		case r < allocBias || len(live) == 0:
			part := rng.Intn(parts)
			if rng.Intn(3) > 0 {
				part = 0 // skew: one partition drains first and must steal
			}
			want, ok := m.alloc(part)
			v, err := s.Alloc(part, KindInt, int64(step))
			if !ok {
				if !errors.Is(err, ErrNoFreeVertices) {
					t.Fatalf("seed %d step %d: Alloc(%d) = %v, %v; model is exhausted", seed, step, part, v, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("seed %d step %d: Alloc(%d): %v; model hands out %d", seed, step, part, err, want)
			}
			if v.ID != want || int(v.Part) != m.partOf[want] {
				t.Fatalf("seed %d step %d: Alloc(%d) = id %d part %d, model id %d part %d",
					seed, step, part, v.ID, v.Part, want, m.partOf[want])
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
}

// TestStoreFixedSizeExhaustsAtCapacity: a FixedSize store hands out exactly
// Capacity distinct vertices — across several segments and via steals —
// then fails, without V ever growing, and one Release buys exactly one more
// Alloc.
func TestStoreFixedSizeExhaustsAtCapacity(t *testing.T) {
	const parts = 4
	capacity := 2*segSize + 123
	s := NewStore(Config{Partitions: parts, Capacity: capacity, FixedSize: true})
	seen := make(map[VertexID]bool, capacity)
	var last *Vertex
	for i := 0; i < capacity; i++ {
		v, err := s.Alloc(1, KindInt, int64(i)) // one partition drains all four shards
		if err != nil {
			t.Fatalf("alloc %d of %d: %v", i, capacity, err)
		}
		if v.ID < 1 || int(v.ID) > capacity || seen[v.ID] {
			t.Fatalf("alloc %d: id %d out of range or handed out twice", i, v.ID)
		}
		if want := int(v.ID-1) >> s.blockBits % parts; int(v.Part) != want {
			t.Fatalf("vertex %d owned by partition %d, want %d", v.ID, v.Part, want)
		}
		seen[v.ID] = true
		last = v
	}
	if s.FreeCount() != 0 || s.Len() != capacity {
		t.Fatalf("after %d allocations: FreeCount %d Len %d", capacity, s.FreeCount(), s.Len())
	}
	for part := 0; part < parts; part++ {
		if _, err := s.Alloc(part, KindInt, 0); !errors.Is(err, ErrNoFreeVertices) {
			t.Fatalf("alloc %d on partition %d: err = %v, want ErrNoFreeVertices", capacity+1, part, err)
		}
	}
	s.Release(last)
	v, err := s.Alloc(2, KindInt, 0)
	if err != nil || v != last {
		t.Fatalf("alloc after release = %v, %v; want the released vertex %d", v, err, last.ID)
	}
	if _, err := s.Alloc(2, KindInt, 0); !errors.Is(err, ErrNoFreeVertices) {
		t.Fatalf("err = %v, want ErrNoFreeVertices again", err)
	}
	if s.Len() != capacity {
		t.Fatalf("Len = %d, want %d: FixedSize must not grow", s.Len(), capacity)
	}
}

// TestStoreGrowsPastCapacity: once the reserved range is handed out, V
// grows one vertex at a time — into the segment that straddles Capacity and
// on into fresh ones — each grown vertex owned by the partition that asked,
// counted by Len, visited by the iterators, and recycled through its
// owner's shard.
func TestStoreGrowsPastCapacity(t *testing.T) {
	const parts = 3
	capacity := segSize - 2
	total := segSize + 5
	s := NewStore(Config{Partitions: parts, Capacity: capacity})
	var vs []*Vertex
	for i := 0; i < total; i++ {
		v, err := s.Alloc(2, KindInt, int64(i))
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if i >= capacity {
			if want := VertexID(i + 1); v.ID != want || v.Part != 2 {
				t.Fatalf("grown vertex %d = id %d part %d, want id %d part 2", i, v.ID, v.Part, want)
			}
		}
		vs = append(vs, v)
	}
	if s.Len() != total || s.FreeCount() != 0 {
		t.Fatalf("Len %d FreeCount %d, want %d and 0", s.Len(), s.FreeCount(), total)
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
	if snap := s.Snapshot(); snap.Len() != total || snap.Vertex(VertexID(total)).Part != 2 {
		t.Fatalf("snapshot len %d, last %+v", snap.Len(), snap.Vertex(VertexID(total)))
	}

	s.ReleaseBatch(vs)
	if s.FreeCount() != total || s.Len() != total {
		t.Fatalf("after release: FreeCount %d Len %d, want %d", s.FreeCount(), s.Len(), total)
	}
	s.ForEach(func(v *Vertex) { t.Errorf("ForEach visited v%d, which is back in F", v.ID) })
	share := 0 // partition 2's reserved ids
	for id := 1; id <= capacity; id++ {
		if (id-1)>>s.blockBits%parts == 2 {
			share++
		}
	}
	if got, want := s.FreeCountOf(2), share+(total-capacity); got != want {
		t.Fatalf("FreeCountOf(2) = %d, want %d (its reserved share plus everything grown)", got, want)
	}
	if v, err := s.Alloc(0, KindInt, 0); err != nil || s.Len() != total {
		t.Fatalf("alloc from refilled F = %v, %v; Len %d", v, err, s.Len())
	}
}

// TestSnapshotKeepsReleasedGrownVertices: ForEach no longer visits a free
// vertex, so Snapshot must say on its own that a vertex grown past Capacity
// and released again is a free vertex of the partition that grew it — not an
// absent one.
func TestSnapshotKeepsReleasedGrownVertices(t *testing.T) {
	const parts, capacity = 4, 6
	s := NewStore(Config{Partitions: parts, Capacity: capacity})
	var grown []*Vertex
	for i := 0; i < capacity+segSize; i++ { // into a second segment
		v, err := s.Alloc(3, KindInt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if int(v.ID) > capacity && i%2 == 0 {
			grown = append(grown, v)
		}
	}
	s.ReleaseBatch(grown[:len(grown)/2])
	for _, v := range grown[len(grown)/2:] {
		s.Release(v)
	}
	snap := s.Snapshot()
	if snap.Len() != capacity+segSize {
		t.Fatalf("snapshot len = %d, want %d", snap.Len(), capacity+segSize)
	}
	for _, v := range grown {
		if sv := snap.Vertex(v.ID); sv == nil || sv.ID != v.ID || sv.Kind != KindFree || sv.Part != 3 {
			t.Fatalf("released grown vertex %d reads %+v in the snapshot, want free on partition 3", v.ID, sv)
		}
	}
	for id := 1; id <= snap.Len(); id++ {
		if sv := snap.Vertex(VertexID(id)); sv == nil || (sv.Kind == KindFree) != s.IsFree(sv.ID) {
			t.Fatalf("snapshot vertex %d = %+v disagrees with the store", id, sv)
		}
	}
}

// TestNeverUsedVerticesStayUnmaterialised: the oracle's view of F includes
// the vertices nothing ever touched, IsFree and PartitionOf answer for them,
// and none of that touches them.
func TestNeverUsedVerticesStayUnmaterialised(t *testing.T) {
	capacity := 3 * segSize
	s := NewStore(Config{Partitions: 4, Capacity: capacity})
	v, err := s.Alloc(0, KindInt, 7)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Len() != capacity {
		t.Fatalf("snapshot len = %d, want %d", snap.Len(), capacity)
	}
	free := 0
	for id := 1; id <= capacity; id++ {
		sv := snap.Vertex(VertexID(id))
		if sv == nil || sv.ID != VertexID(id) || sv.Part != (id-1)>>s.blockBits%4 {
			t.Fatalf("snapshot vertex %d = %+v", id, sv)
		}
		if sv.Kind == KindFree {
			free++
		}
	}
	if free != capacity-1 || snap.Vertex(v.ID).Kind != KindInt {
		t.Fatalf("%d free in snapshot, want %d; allocated vertex = %+v", free, capacity-1, snap.Vertex(v.ID))
	}
	block1 := VertexID(1<<s.blockBits + 1) // the first id of the second block
	if !s.IsFree(5) || s.PartitionOf(block1) != 1 || s.Vertex(5) != nil {
		t.Fatalf("never-used id: IsFree(5)=%v PartitionOf(%d)=%d Vertex(5)=%v; want true, 1, nil",
			s.IsFree(5), block1, s.PartitionOf(block1), s.Vertex(5))
	}
	if s.IsFree(NilVertex) || s.IsFree(VertexID(capacity+1)) || s.PartitionOf(VertexID(capacity+1)) != 0 {
		t.Fatal("ids outside V must be neither free nor owned")
	}
	materialised := 0
	for _, seg := range *s.segs.Load() {
		if seg != nil {
			materialised++
		}
	}
	if materialised != 1 {
		t.Fatalf("%d segments materialised after one Alloc, a Snapshot and lookups, want 1", materialised)
	}
}

// TestReservedRangeEndsOnSegment: a default-capacity store's top id is the
// last slot of its segment, so a partition whose first allocation is that id
// (partition 0 of one, partition 3 of four) materialises one full segment of
// reserved ids, not one segment for a single vertex.
func TestReservedRangeEndsOnSegment(t *testing.T) {
	const capacity = 1 << 16
	for _, parts := range []int{1, 4} {
		s := NewStore(Config{Partitions: parts, Capacity: capacity})
		v, err := s.Alloc(parts-1, KindInt, 0)
		if err != nil {
			t.Fatal(err)
		}
		segs := *s.segs.Load()
		if v.ID != capacity || len(segs) != capacity/segSize {
			t.Fatalf("parts=%d: first id %d, %d segments; want %d in segment %d of %d",
				parts, v.ID, len(segs), capacity, capacity/segSize-1, capacity/segSize)
		}
		top := segs[len(segs)-1]
		if v != &top.verts[segSize-1] || top.verts[0].ID != capacity-segSize+1 {
			t.Fatalf("parts=%d: the top segment holds v%d..v%d, want v%d..v%d",
				parts, top.verts[0].ID, top.verts[segSize-1].ID, capacity-segSize+1, capacity)
		}
	}
}

// TestReservedIdsDealtInBlocks pins the block rule over capacities with
// and without a partial last block: the block size B is the largest power
// of two at most 1<<maxBlockBits and at most Capacity/(8·parts), reserved id
// id belongs to partition ((id-1)/B) mod parts, each partition's never-used
// ids come off its shard once each and highest first, and the shares sum to
// Capacity and differ by at most one block. At the default 65 536 ids and 4
// partitions every partition's first Alloc lands in the top segment, as it
// did when ids were dealt one at a time, so a machine that allocates on
// every partition materialises no more arena than it did then.
func TestReservedIdsDealtInBlocks(t *testing.T) {
	for _, capacity := range []int{5, 37, 200, 4096, 65535, 65536} {
		for _, parts := range []int{1, 3, 4, 8} {
			t.Run(fmt.Sprintf("cap=%d/parts=%d", capacity, parts), func(t *testing.T) {
				block := 1
				for block*2 <= 1<<maxBlockBits && block*2 <= capacity/(8*parts) {
					block *= 2
				}
				s := NewStore(Config{Partitions: parts, Capacity: capacity, FixedSize: true})
				if 1<<s.blockBits != block {
					t.Fatalf("block size %d, want %d", 1<<s.blockBits, block)
				}
				for id := 1; id <= capacity; id++ {
					if got, want := s.PartitionOf(VertexID(id)), (id-1)/block%parts; got != want {
						t.Fatalf("PartitionOf(%d) = %d, want %d", id, got, want)
					}
				}

				seen := make([]bool, capacity+1)
				sum, least, most := 0, capacity, 0
				for p := 0; p < parts; p++ {
					n := s.FreeCountOf(p)
					sum, least, most = sum+n, min(least, n), max(most, n)
					prev := VertexID(capacity + 1)
					for k := 0; ; k++ {
						id, ok := s.popLocal(p)
						if !ok {
							if k != n {
								t.Fatalf("partition %d gave %d ids, FreeCountOf said %d", p, k, n)
							}
							break
						}
						if id >= prev || seen[id] || s.PartitionOf(id) != p {
							t.Fatalf("partition %d's id %d after %d: not descending, seen before, or owned by %d",
								p, id, prev, s.PartitionOf(id))
						}
						seen[id], prev = true, id
					}
				}
				if sum != capacity || most-least > block {
					t.Fatalf("shares sum to %d (want %d) and range over %d..%d (want within one block, %d)",
						sum, capacity, least, most, block)
				}

				if capacity != 1<<16 || parts != 4 {
					return
				}
				s = NewStore(Config{Partitions: parts, Capacity: capacity})
				for p := 0; p < parts; p++ {
					v, err := s.Alloc(p, KindInt, 0)
					if err != nil {
						t.Fatal(err)
					}
					if seg, _ := slotOf(v.ID); seg != capacity/segSize-1 {
						t.Fatalf("partition %d's first id %d is in segment %d, want the top one, %d",
							p, v.ID, seg, capacity/segSize-1)
					}
				}
			})
		}
	}
}

// TestStoreConcurrentMaterialise races, for the race detector, everything
// that can meet a segment being materialised or an in-use bit changing:
// allocators on every partition walking down through untouched segments, a
// churner releasing ids that share bitmap words with theirs, readers looking
// up ids the moment they are published, and sweeps — each of which must
// visit, in ascending order, every vertex an allocator had labelled before
// the sweep began. It is sized to run under -short, so CI's race step
// covers it.
func TestStoreConcurrentMaterialise(t *testing.T) {
	const parts = 4
	perPart := 8 * segSize // every allocator walks down through all 8*parts segments
	s := NewStore(Config{Partitions: parts, Capacity: parts * perPart})

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
// default-capacity store is a handful of small allocations, and a program
// of a few hundred vertices pays for the segments it reached, not for the
// 15 MB the configured capacity would occupy.
func TestStoreCostsWhatItTouches(t *testing.T) {
	cfg := Config{Partitions: 4, Capacity: 1 << 16}
	var s *Store
	if n := testing.AllocsPerRun(10, func() { s = NewStore(cfg) }); n > 8 {
		t.Errorf("NewStore(1<<16) makes %v allocations, want a constant handful", n)
	}
	if b := allocatedBytes(func() { s = NewStore(cfg) }); b >= 64<<10 {
		t.Errorf("NewStore(1<<16) allocates %d bytes, want < 64 KB", b)
	}
	if s.Len() != 1<<16 || s.FreeCount() != 1<<16 {
		t.Fatalf("Len %d FreeCount %d, want both %d", s.Len(), s.FreeCount(), 1<<16)
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
	if b >= 2<<20 {
		t.Errorf("a 300-vertex program on a 1<<16 store allocates %d bytes, want < 2 MB", b)
	}
}
