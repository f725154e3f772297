package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"dgr/internal/lock"
)

// ErrNoFreeVertices is returned by Alloc when the free set F is exhausted
// and the store was configured not to grow.
var ErrNoFreeVertices = errors.New("graph: free list exhausted")

// Config parameterizes a Store.
type Config struct {
	// Partitions is the number of subgraph partitions (one per PE). Must be
	// at least 1 and at most MaxPartitions.
	Partitions int
	// Capacity is the initial size of V: ids 1..Capacity are reserved as
	// free vertices, dealt to the partitions in blocks of consecutive ids
	// (reservedOwner), so that a partition's vertices sit side by side.
	// Reserving costs nothing; a vertex takes arena memory only once its
	// segment is first touched.
	Capacity int
	// FixedSize, when true, makes Alloc fail with ErrNoFreeVertices instead
	// of growing the vertex arena when F is empty. The paper's model has a
	// fixed finite V; benchmarks that study reclamation use FixedSize.
	FixedSize bool
	// Serial promises that one goroutine at a time touches the store's
	// vertices — a seeded machine, which runs one task at a time and fences
	// every other reader with its owner lock. Vertex.Lock and Unlock then
	// skip the vertex mutex, and Alloc and Release the free-list shard's.
	// The zero value keeps both locked.
	Serial bool
}

// MaxPartitions bounds Config.Partitions: a vertex records its partition
// in 16 bits.
const MaxPartitions = 1 << 16

// Arena segmentation: vertex lookups are the hottest operation in the
// whole system (every task execution does several), so the arena is a
// lock-free two-level table — a directory of atomically published pointers
// to fixed-size segments. Readers never take a lock; the grow mutex guards
// only the publication of a new segment and the growth of the directory.
//
// The segment size is the unit in which a store pays for what a program
// touched, and a segment is one block of reserved ids, the largest a
// partition is dealt: a partition's vertices fill its segments alone, so a
// store pays for the blocks its program reached and for none of another
// partition's. A store whose block is smaller (a Capacity below 512 per
// partition) shares each segment among partitions. The directory is
// written in place, so a small segment costs no table copy, and a
// partition's segments come in doubling chunks, so one costs no allocation
// of its own either (DESIGN.md §8, "A segment is a block").
const (
	segBits = maxBlockBits
	segSize = 1 << segBits
	segMask = segSize - 1
)

// slotOf returns the segment and the slot in it that hold id (not
// NilVertex). Id 1 sits in slot 0, so a reserved range of whole segments —
// the default Capacity, 65 536 — ends on a segment boundary, and no
// partition pays a segment for its one top id.
func slotOf(id VertexID) (segIdx, slot int) {
	i := int(id) - 1
	return i >> segBits, i & segMask
}

// segment is the arena of one block of ids: vertices are embedded by value,
// 64 of them at 120 bytes, 7.5 KiB, and a partition's segments are
// allocated in chunks (segChunk), so the arena costs an allocation per
// chunk instead of one per vertex. A segment is materialised when Alloc
// first hands out one of its ids, so a store pays for the id ranges a
// program reached, not for Capacity. Vertex pointers into a segment stay
// stable for the life of the store.
//
// used holds one in-use bit per slot, so a sweep visits the vertices out of
// F and nothing else (DESIGN.md §8, "The sweep visits what is in use").
// AllocStamped sets a slot's bit after its id has left the shard and before
// the vertex is labelled non-free; Release and Retire clear it after
// ResetFree and before the id goes back on a shard's stack. A set bit may
// therefore name a vertex that still reads KindFree, never the reverse: a
// vertex labelled non-free before a ForEach began is visited by it. The bits
// are written through Store.markUsed, which knows the store's mode, and
// read with atomic loads.
type segment struct {
	verts [segSize]Vertex
	used  [segSize / 64]uint64
}

// freeShard is one partition's slice of the free set F: its own lock and a
// stack of ids. The shards are the only record of F: |F| is the sum of
// their stacks and never-used counts (Store.FreeCount). The bottom of the
// stack is implicit: the partition's never-used ids, the k-th of them
// virginID(k) for k < virgin, popped highest-first — exactly the stack a
// store that pushed its blocks of ids 1..Capacity at construction would
// hold. Released ids are pushed on top of it in ids.
// PEs allocate and release on their own partition, so under
// partition-local workloads no two PEs ever contend on the same shard
// lock; a serial store's shards, like its vertices, take none (the lock
// follows Config.Serial). The same lock guards recs, the spare overflow
// records of the partition's vertices. A shard fills one cache line, so
// adjacent shards do not false-share.
type freeShard struct {
	mu     lock.Mutex
	virgin uint32 // fills the 4 bytes after the lock
	ids    []VertexID
	recs   []*overflow
}

// take pops the shard's top free id: the most recently released one, else
// the highest never-used one. The caller holds sh.mu.
func (sh *freeShard) take(part, parts int, blockBits uint) (VertexID, bool) {
	if n := len(sh.ids); n > 0 {
		id := sh.ids[n-1]
		sh.ids = sh.ids[:n-1]
		return id, true
	}
	if sh.virgin > 0 {
		sh.virgin--
		return virginID(int(sh.virgin), part, parts, blockBits), true
	}
	return NilVertex, false
}

// maxBlockBits is log₂ of the largest block of consecutive reserved ids a
// partition is dealt (DESIGN.md §8, "A partition's vertices are
// contiguous"). A block of that size fills one segment.
const maxBlockBits = 6

// blockBitsFor returns log₂ of the block size B: the largest power of two
// at most 1<<maxBlockBits and capacity/(8·parts), so that each partition
// owns eight blocks or more. A store too small for B = 2 deals round-robin.
func blockBitsFor(capacity, parts int) uint {
	return uint(max(0, min(maxBlockBits, bits.Len(uint(capacity/(8*parts)))-1)))
}

// virginCount returns how many of the reserved ids 1..capacity partition
// part owns: its blocks part, part+parts, ..., the last of all blocks
// partial when capacity is not a multiple of the block size.
func virginCount(capacity, part, parts int, blockBits uint) int {
	blocks := (capacity + 1<<blockBits - 1) >> blockBits
	if blocks <= part {
		return 0
	}
	n := ((blocks-1-part)/parts + 1) << blockBits
	if (blocks-1)%parts == part {
		n -= blocks<<blockBits - capacity
	}
	return n
}

// virginID returns partition part's k-th reserved id, counting up from 0:
// offset k mod B in the partition's (k div B)-th block.
func virginID(k, part, parts int, blockBits uint) VertexID {
	block := (k>>blockBits)*parts + part
	return VertexID(block<<blockBits + k&(1<<blockBits-1) + 1)
}

// Store owns every vertex in the computation graph and the per-partition
// free lists (the paper's set F), whose shards alone say what F holds.
// Vertex field access is guarded by per-vertex locks, or, on a serial
// store, by its owner running one task at a time; free-list access is
// sharded per partition, so Alloc/Release on different PEs never touch a
// shared lock (the slow path steals one vertex from a sibling shard), and a
// serial store's owner takes no shard lock either. Segment materialisation
// and growth past Capacity alone are funneled through one mutex, and the
// segment directory is read lock-free: a segment is published by an atomic
// store into its entry, and only growth past the reserved range copies the
// directory. Construction costs O(partitions), and the never-used part of V
// exists only as a count per shard; a ForEach costs the vertices in use plus
// one directory entry per segment from the lowest one a program reached.
type Store struct {
	// dir is the segment directory, indexed by slotOf: an entry is nil until
	// its segment is first touched. The first materialisation makes it span
	// the reserved range; growOne replaces it, twice as long, past that.
	dir atomic.Pointer[[]atomic.Pointer[segment]]
	n   atomic.Int64 // |V|: reserved + grown vertices (excludes NilVertex)
	// low is the lowest materialised segment index, where ForEach starts: a
	// partition reaches its blocks top first, so a small program's segments
	// sit at the top of a directory that spans the whole reserved range.
	low atomic.Int32

	growMu sync.Mutex // guards segment publication, chunks and growth past reserved; not taken by Alloc fast paths
	// chunks are the partitions' spare segments, made with the first
	// directory on a store whose segment is a block; guarded by growMu.
	chunks []segChunk

	reserved  int    // ids 1..reserved start out free, owned block by block (reservedOwner)
	blockBits uint   // log₂ of the block size B the reserved ids are dealt in
	partsM    uint64 // modMultiplier(parts), reservedOwner's multiplier

	shards []freeShard
	fixed  bool
	// serial is Config.Serial, stamped on every shard and on every vertex as
	// it is materialised; markUsed writes the in-use bits plainly under it.
	serial bool

	// runs are the retired ids of each partition not yet published to F
	// (Retire, PublishRetired), kept from cycle to cycle (not in freeShard,
	// which fills one cache line). relMu serialises ReleaseBatch's callers;
	// it follows Config.Serial like the shard locks.
	relMu lock.Mutex
	runs  [][]VertexID

	// blank is the overflow record every vertex points at until it takes
	// one of its own; through it a vertex reaches the store's spares.
	blank overflow

	parts int
}

// NewStore builds a store with cfg.Capacity free vertices distributed over
// cfg.Partitions partitions. It touches no vertex: its cost is one shard
// per partition, whatever the capacity.
func NewStore(cfg Config) *Store {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > MaxPartitions {
		panic(fmt.Sprintf("graph: NewStore with %d partitions, more than %d", cfg.Partitions, MaxPartitions))
	}
	if cfg.Capacity < 0 {
		cfg.Capacity = 0
	}
	s := &Store{
		shards:    make([]freeShard, cfg.Partitions),
		fixed:     cfg.FixedSize,
		serial:    cfg.Serial,
		parts:     cfg.Partitions,
		reserved:  cfg.Capacity,
		blockBits: blockBitsFor(cfg.Capacity, cfg.Partitions),
		partsM:    modMultiplier(cfg.Partitions),
	}
	s.dir.Store(&noSegments)
	s.low.Store(math.MaxInt32)
	s.relMu.SetSerial(s.serial)
	for part := range s.shards {
		s.shards[part].mu.SetSerial(s.serial)
		s.shards[part].virgin = uint32(virginCount(cfg.Capacity, part, cfg.Partitions, s.blockBits))
	}
	s.blank.home = s
	s.n.Store(int64(cfg.Capacity))
	return s
}

// reservedOwner returns the partition that owns reserved id (1..reserved):
// the ids are dealt in blocks of B = 1<<blockBits consecutive ids,
// partition p owning blocks p, p+parts, ... That is the block number mod
// parts, which it takes with no division (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019): for a 32-bit block number b and
// M = ⌈2⁶⁴/parts⌉, b mod parts is the high word of (M·b mod 2⁶⁴)·parts.
// With one partition M wraps to 0, and so does the owner.
func (s *Store) reservedOwner(id int) int {
	hi, _ := bits.Mul64(s.partsM*uint64(uint32(id-1)>>s.blockBits), uint64(s.parts))
	return int(hi)
}

// modMultiplier returns ⌈2⁶⁴/d⌉ mod 2⁶⁴, the multiplier with which
// reservedOwner takes a 32-bit remainder by d.
func modMultiplier(d int) uint64 { return ^uint64(0)/uint64(d) + 1 }

// noSegments is the directory of a store no id of which was touched yet.
var noSegments []atomic.Pointer[segment]

// growOne extends V past the reserved range by one vertex owned by part and
// returns its id. The new vertex is NOT added to any free list: it is
// handed out directly.
func (s *Store) growOne(part int) VertexID {
	s.growMu.Lock()
	id := VertexID(s.n.Load() + 1)
	segIdx, slot := slotOf(id)
	v := &s.segmentLocked(segIdx).verts[slot]
	v.ID = id
	v.SetSerial(s.serial)
	v.Part = uint16(part)
	v.Kind = KindFree
	v.more = &s.blank
	// The vertex fields are fully written before n is published; readers
	// only dereference ids at or below a loaded n.
	s.n.Add(1)
	s.growMu.Unlock()
	return id
}

// segmentLocked returns segment segIdx, materialising it if no id in it was
// ever touched: every reserved id in it becomes a free vertex of its
// block's partition (ids past the reserved range are initialised by
// growOne). The segment is published by an atomic store into its directory
// entry, after its vertices are written. The caller holds growMu.
func (s *Store) segmentLocked(segIdx int) *segment {
	dir := *s.dir.Load()
	if segIdx >= len(dir) {
		dir = s.growDirLocked(segIdx)
	} else if seg := dir[segIdx].Load(); seg != nil {
		return seg
	}
	seg := s.newSegmentLocked(segIdx)
	base := segIdx<<segBits + 1 // the id in slot 0
	for i := range seg.verts {
		id := base + i
		if id > s.reserved {
			break
		}
		v := &seg.verts[i]
		v.ID = VertexID(id)
		v.SetSerial(s.serial)
		v.Part = uint16(s.reservedOwner(id))
		v.Kind = KindFree
		v.more = &s.blank
	}
	dir[segIdx].Store(seg)
	if segIdx < int(s.low.Load()) {
		s.low.Store(int32(segIdx))
	}
	return seg
}

// growDirLocked publishes a directory that has an entry for segIdx, and
// returns it. The first spans the reserved range, inside which no directory
// is copied again; past it, growOne's ids double the directory, so a store
// that keeps growing copies each entry about once. Readers holding the old
// directory miss only segments published after it was replaced, whose ids
// they cannot have been handed. The caller holds growMu.
func (s *Store) growDirLocked(segIdx int) []atomic.Pointer[segment] {
	old := *s.dir.Load()
	dir := make([]atomic.Pointer[segment], max(segIdx+1, 2*len(old), (s.reserved+segMask)>>segBits))
	for i := range old {
		dir[i].Store(old[i].Load())
	}
	s.dir.Store(&dir)
	return dir
}

// segChunk is what is left of the last chunk of segments a partition was
// given: one allocation holding the segments of the partition's next blocks,
// highest first — the order its never-used ids leave its shard — spare[0]
// standing for segment next. A partition's chunks hold 1, 2, 4, then
// maxChunk segments, so a program pays for at most about twice the blocks it
// reached, and a store that fills its range makes one allocation per
// maxChunk segments.
type segChunk struct {
	spare []segment
	next  int // the segment index of spare[0]
	size  int // the segments the last chunk held
}

// maxChunk bounds a chunk: 8 segments of 64 vertices, 60 KiB.
const maxChunk = 8

// newSegmentLocked returns a zeroed segment for index segIdx. A segment that
// is one reserved block comes from its partition's chunk, which is refilled,
// twice as long as the last, when empty or when an allocator on a parallel
// store reached the partition's blocks out of order; a segment shared by
// partitions, or past the reserved range, is an allocation of its own. The
// caller holds growMu.
func (s *Store) newSegmentLocked(segIdx int) *segment {
	base := segIdx << segBits // the slot-0 id, less one
	if s.blockBits != segBits || base >= s.reserved {
		return new(segment)
	}
	if s.chunks == nil {
		s.chunks = make([]segChunk, s.parts)
	}
	c := &s.chunks[s.reservedOwner(base+1)]
	if len(c.spare) == 0 || c.next != segIdx {
		c.size = min(max(1, 2*c.size), maxChunk)
		// The partition's blocks at or below segIdx: segIdx, segIdx-parts, ...
		c.spare = make([]segment, min(c.size, segIdx/s.parts+1))
	}
	seg := &c.spare[0]
	c.spare, c.next = c.spare[1:], segIdx-s.parts
	return seg
}

// materialise returns the segment of an id, materialising it if need be;
// Alloc calls it for the first vertex it hands out of a segment.
func (s *Store) materialise(id VertexID) *segment {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	segIdx, _ := slotOf(id)
	return s.segmentLocked(segIdx)
}

// Partitions returns the number of partitions.
func (s *Store) Partitions() int { return s.parts }

// Len returns the number of vertices in V (free or not, touched or not),
// excluding the nil slot.
func (s *Store) Len() int { return int(s.n.Load()) }

// FreeCount returns |F|, summed over the partitions' shards, each read
// under its lock (FreeCountOf); on a serial store, the caller must be, or
// hold off, the owner. A vertex counts from the moment its id is on a
// shard until Alloc takes it off one, so a store nobody is changing reads
// exactly; one that is changing reads each shard at a different instant.
func (s *Store) FreeCount() int {
	n := 0
	for part := range s.shards {
		n += s.FreeCountOf(part)
	}
	return n
}

// FreeCountOf returns the free-vertex count of one partition's shard, or 0
// for an out-of-range partition. Takes that shard's lock only; on a serial
// store, the caller must be, or hold off, the owner.
func (s *Store) FreeCountOf(part int) int {
	if part < 0 || part >= len(s.shards) {
		return 0
	}
	sh := &s.shards[part]
	sh.mu.Lock()
	n := len(sh.ids) + int(sh.virgin)
	sh.mu.Unlock()
	return n
}

// Vertex returns the vertex with the given ID. It returns nil for
// NilVertex, for an out-of-range ID, and for a reserved ID in a segment no
// allocation has reached yet — a vertex that was never handed out, so no
// edge, task or root can name it. The returned pointer is stable for the
// life of the store. Lock-free, and small enough to inline: NilVertex's
// slot index wraps to 2⁶⁴−1, past every directory, so one unsigned test
// rejects it with every id past the directory.
func (s *Store) Vertex(id VertexID) *Vertex {
	if int64(id) > s.n.Load() { // n first: growOne publishes a segment before n
		return nil
	}
	i := uint64(id) - 1 // the slot index: id 1 in slot 0
	dir := *s.dir.Load()
	if i>>segBits >= uint64(len(dir)) {
		return nil
	}
	if seg := dir[i>>segBits].Load(); seg != nil {
		return &seg.verts[i&segMask]
	}
	return nil
}

// segmentIn returns segment segIdx of a loaded directory, or nil if it is
// not materialised there.
func segmentIn(dir []atomic.Pointer[segment], segIdx int) *segment {
	if segIdx >= len(dir) {
		return nil
	}
	return dir[segIdx].Load()
}

// Alloc takes a vertex from the free list of the given partition, stealing
// from other partitions if the local list is empty, and growing the arena if
// allowed. The vertex is returned labeled with the given kind/value, with no
// edges, ready for the caller to wire and splice in.
//
// part must be a valid partition. A caller that passes an out-of-range
// partition is misrouting an allocation — silently clamping it to 0 would
// put the vertex on the wrong PE and mask the bug — so Alloc panics,
// naming the offending value (the same philosophy as sched.Machine.PartOf).
//
// Alloc stamps AllocEpoch/AllocEpochT to zero, which is only safe while no
// concurrent sweep runs (graph construction, tests). Mutators racing a
// collector must use AllocStamped.
func (s *Store) Alloc(part int, kind Kind, val int64) (*Vertex, error) {
	return s.AllocStamped(part, kind, val, 0, 0)
}

// AllocStamped is Alloc with the vertex's alloc epochs written inside the
// same critical section that labels it non-free. The restructuring sweep
// runs concurrently with allocation; if the vertex became non-free with a
// stale epoch even briefly, a sweep scanning that window would see an
// unmarked, unprotected vertex and reclaim it before the caller wires it
// into the graph. Concurrent mutators pass FreshAllocEpoch for both stamps
// and let the splice primitive record the real epochs at wiring time.
func (s *Store) AllocStamped(part int, kind Kind, val int64, epochR, epochT uint64) (*Vertex, error) {
	if part < 0 || part >= s.parts {
		panic(fmt.Sprintf("graph: Alloc partition %d out of range [0,%d)", part, s.parts))
	}
	var id VertexID
	for {
		var ok bool
		id, ok = s.popLocal(part)
		if !ok {
			id, ok = s.steal(part)
		}
		if ok {
			break
		}
		if !s.fixed {
			id = s.growOne(part)
			break
		}
		// FixedSize and the sweep found nothing. Vertices never leave F
		// except when claimed, so shards that all read empty mean F really
		// is empty. A non-empty one means a concurrent Release landed after
		// we passed its shard — retry.
		if s.FreeCount() == 0 {
			return nil, ErrNoFreeVertices
		}
	}
	segIdx, slot := slotOf(id)
	seg := segmentIn(*s.dir.Load(), segIdx)
	if seg == nil {
		seg = s.materialise(id) // the first vertex handed out of its segment
	}
	s.markUsed(seg, slot, true)
	v := &seg.verts[slot]

	v.Lock()
	v.Kind = kind
	v.Val = val
	v.Red = RedState{AllocEpoch: epochR, AllocEpochT: epochT}
	v.Unlock()
	return v, nil
}

// popLocal takes the top free vertex of part's own shard. This is the
// allocation fast path: one uncontended per-partition lock, or none on a
// serial store.
func (s *Store) popLocal(part int) (VertexID, bool) {
	sh := &s.shards[part]
	sh.mu.Lock()
	id, ok := sh.take(part, s.parts, s.blockBits)
	sh.mu.Unlock()
	return id, ok
}

// steal claims one free vertex from a sibling partition's shard. It is the
// deliberate slow path: it runs only when part's own shard is empty, and it
// probes victims in ring order from part — the exact order (and therefore
// the exact id sequence) of the pre-sharding allocator, which the
// deterministic scheduler's schedule-identity guarantee depends on. Only
// one shard lock is held at a time, so steals can never deadlock against
// each other or against Release.
func (s *Store) steal(part int) (VertexID, bool) {
	for off := 1; off < s.parts; off++ {
		victim := (part + off) % s.parts
		vs := &s.shards[victim]
		vs.mu.Lock()
		id, ok := vs.take(victim, s.parts, s.blockBits)
		vs.mu.Unlock()
		if ok {
			return id, true
		}
	}
	return NilVertex, false
}

// Release returns a vertex to F (the restructuring phase's "adding elements
// of GAR to F"). The caller must guarantee the vertex is unreachable; its
// edges and reduction state are cleared, and its overflow record, if any,
// joins the partition's spares. Only the owning partition's shard lock is
// taken, so concurrent releases on different PEs never contend.
func (s *Store) Release(v *Vertex) {
	v.Lock()
	v.ResetFree()
	part := int(v.Part)
	v.Unlock()
	s.clearUsed(v.ID)

	sh := &s.shards[part]
	sh.mu.Lock()
	sh.ids = append(sh.ids, v.ID)
	sh.mu.Unlock()
}

// ReleaseBatch returns a whole batch of vertices to F: it retires each
// (Retire) and then publishes them (PublishRetired). Append order within a
// partition matches vertex order in vs, so the id sequence handed back out by
// Alloc is identical to len(vs) individual Release calls. Concurrent calls
// take turns on relMu, which on a serial store, like the shard locks, is no
// lock at all.
func (s *Store) ReleaseBatch(vs []*Vertex) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	for _, v := range vs {
		v.Lock()
		s.Retire(v)
		v.Unlock()
	}
	s.PublishRetired()
}

// Retire resets v, a garbage vertex, clears its in-use bit and appends its id
// to its partition's run of retired ids, which PublishRetired hands to F: the
// restructuring phase retires each garbage vertex as its sweep finds it, and
// publishes them all once the tasks that still name them are expunged, so no
// id is allocated again while a task names it. A vertex that still holds an
// overflow record gives it back in ResetFree, under its shard's lock. The
// caller holds v's lock, and retires and publishes alone: a machine's
// collector is its store's one retirer, so the runs take no lock there
// (ReleaseBatch takes relMu for callers that share a store).
func (s *Store) Retire(v *Vertex) {
	if s.runs == nil {
		s.runs = make([][]VertexID, s.parts)
	}
	v.ResetFree()
	s.clearUsed(v.ID)
	s.runs[v.Part] = append(s.runs[v.Part], v.ID)
}

// PublishRetired puts every retired id onto its partition's free stack, in
// the order it was retired: one shard lock hold per partition, so the
// restructuring phase, which reclaims garbage by the thousand, does not
// serialize against the PEs' allocation fast paths.
func (s *Store) PublishRetired() {
	for part, run := range s.runs {
		if len(run) == 0 {
			continue
		}
		sh := &s.shards[part]
		sh.mu.Lock()
		sh.ids = append(sh.ids, run...)
		sh.mu.Unlock()
		s.runs[part] = run[:0]
	}
}

// clearUsed clears the in-use bit of a vertex handed out earlier, whose
// segment therefore exists.
func (s *Store) clearUsed(id VertexID) {
	segIdx, slot := slotOf(id)
	s.markUsed(segmentIn(*s.dir.Load(), segIdx), slot, false)
}

// markUsed sets or clears slot i's in-use bit. A serial store's owner is the
// only writer and fences every reader, so it writes the word plainly; a
// parallel store's PEs share words, and write them with an atomic Or or And.
func (s *Store) markUsed(seg *segment, i int, used bool) {
	w, bit := &seg.used[i>>6], uint64(1)<<(i&63)
	if s.serial {
		if used {
			*w |= bit
		} else {
			*w &^= bit
		}
		return
	}
	if used {
		atomic.OrUint64(w, bit)
	} else {
		atomic.AndUint64(w, ^bit)
	}
}

// IsFree reports whether id is currently in F.
func (s *Store) IsFree(id VertexID) bool {
	v := s.Vertex(id)
	if v == nil {
		// Inside V but never materialised: never handed out, so still in F.
		return id != NilVertex && int64(id) <= s.n.Load()
	}
	v.Lock()
	defer v.Unlock()
	return v.Kind == KindFree
}

// ForEach calls fn, in ascending id order, for every vertex whose in-use bit
// is set: every vertex out of F, plus any caught between its id and its
// label changing, which still reads KindFree. Free vertices are skipped
// without being touched — no caller has business with one — so a pass costs
// the vertices in use, not the ids the program ever touched. It snapshots
// the arena bounds first; vertices allocated during iteration may be missed,
// which is the semantics restructuring wants (new vertices come from F and
// are never garbage in the current cycle by reduction axiom 1).
func (s *Store) ForEach(fn func(*Vertex)) {
	n := int(s.n.Load())
	dir := *s.dir.Load()
	for si := int(s.low.Load()); si < len(dir); si++ {
		seg := dir[si].Load()
		if seg == nil {
			continue
		}
		for w := range seg.used {
			for word := atomic.LoadUint64(&seg.used[w]); word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if si<<segBits+i+1 > n { // the slot's id
					return // grown after the snapshot, like every id above it
				}
				fn(&seg.verts[i])
			}
		}
	}
}

// PartitionOf returns the partition that owns id (0 for invalid IDs). A
// reserved id's owner is arithmetic, the value its vertex's Part is written
// with, so only a grown id loads its vertex.
func (s *Store) PartitionOf(id VertexID) int {
	if id != NilVertex && int(id) <= s.reserved {
		return s.reservedOwner(int(id))
	}
	if v := s.Vertex(id); v != nil {
		return int(v.Part)
	}
	return 0
}

// Snapshot returns a consistent copy of the graph's connectivity for
// offline analysis. The world should be quiescent (or deterministically
// paused) when it is taken; each vertex is copied under its own lock — on a
// serial store, the caller must be, or hold off, the owner.
func (s *Store) Snapshot() *Snapshot {
	n := int(s.n.Load())
	snap := &Snapshot{
		Verts: make([]SnapVertex, n+1),
		Parts: s.parts,
	}
	// Every id starts as a free vertex of its owner — a never-used reserved
	// id's owner is arithmetic, no need to materialise the arena to say so;
	// a grown id's is its immutable Part — and ForEach then overwrites the
	// ones in use.
	for id := 1; id <= n; id++ {
		sv := SnapVertex{ID: VertexID(id), Kind: KindFree}
		if id <= s.reserved {
			sv.Part = s.reservedOwner(id)
		} else {
			sv.Part = int(s.Vertex(VertexID(id)).Part)
		}
		snap.Verts[id] = sv
	}
	s.ForEach(func(v *Vertex) {
		v.Lock()
		sv := SnapVertex{
			ID:   v.ID,
			Part: int(v.Part),
			Kind: v.Kind,
			Val:  v.Val,
		}
		sv.Args = append(sv.Args, v.Args()...)
		for i := range sv.Args {
			sv.ReqKinds = append(sv.ReqKinds, v.ReqKindAt(i))
		}
		sv.Requested = append(sv.Requested, v.Requested()...)
		v.Unlock()
		snap.Verts[sv.ID] = sv
	})
	return snap
}

// SnapVertex is an immutable copy of a vertex's connectivity.
type SnapVertex struct {
	ID        VertexID
	Part      int
	Kind      Kind
	Val       int64
	Args      []VertexID
	ReqKinds  []ReqKind
	Requested []Requester
}

// Snapshot is an immutable copy of the whole graph, used by the
// stop-the-world reachability oracle in internal/analysis.
type Snapshot struct {
	Verts []SnapVertex
	Parts int
}

// Vertex returns the snapshot of id, or nil.
func (s *Snapshot) Vertex(id VertexID) *SnapVertex {
	if id == NilVertex || int(id) >= len(s.Verts) {
		return nil
	}
	sv := &s.Verts[id]
	if sv.ID == NilVertex {
		return nil
	}
	return sv
}

// Len returns the number of vertices in the snapshot (excluding slot 0).
func (s *Snapshot) Len() int { return len(s.Verts) - 1 }
