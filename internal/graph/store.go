package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"dgr/internal/lock"
)

// ErrNoFreeVertices is returned by Alloc when a partition's free list is
// empty and the 32-bit id space has no block left to deal it.
var ErrNoFreeVertices = errors.New("graph: vertex id space exhausted")

// Config parameterizes a Store.
type Config struct {
	// Partitions is the number of subgraph partitions (one per PE). Must be
	// at least 1 and at most MaxPartitions.
	Partitions int
	// Capacity is how many ids the store's first segment directory spans;
	// a smaller value, 0 included, spans firstDirSegments segments. It sizes
	// that one allocation and nothing else: which partition an id goes to
	// never depends on it.
	Capacity int
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
// only the dealing of a block and the growth of the directory.
//
// A segment is a block: the 64 consecutive ids a partition is dealt when
// its free list runs dry, all of them that partition's (DESIGN.md §8, "A
// partition that runs dry takes a fresh block"). Blocks are dealt in
// ascending order, so the directory is dense from segment 0 and doubles as
// the store grows; a partition's segments come in doubling chunks, so a
// block costs no allocation of its own.
const (
	segBits = 6
	segSize = 1 << segBits
	segMask = segSize - 1
)

// firstDirSegments is the least a store's first directory spans: 2 048 ids,
// 256 bytes of entries.
const firstDirSegments = 32

// segment is the arena of one block: vertices are embedded by value, 64 of
// them at 96 bytes, 6 KiB, and a partition's segments are allocated in
// chunks (segChunk), so the arena costs an allocation per chunk instead of
// one per vertex. Vertex pointers into a segment stay stable for the life
// of the store.
//
// used holds one in-use bit per slot, so a sweep visits the vertices out of
// F and nothing else (DESIGN.md §8, "The sweep visits what is in use").
// AllocStamped sets a slot's bit after its id has left the shard and before
// the vertex is labelled non-free; Release and Retire clear it after
// ResetFree and before the id goes back on a shard's stack. A set bit may
// therefore name a vertex that still reads KindFree, never the reverse: a
// vertex labelled non-free before a ForEach began is visited by it. The bits
// are written through Store.markUsed, which knows the store's mode, and
// read with atomic loads. The word stays here: without it, chunks of 1, 2
// and 4 segments would still land in the size classes they do (Go puts an
// 8-byte header on them), only a chunk of 8 would be a page smaller, and
// every other home for the word costs an allocation per chunk or a lock on
// alloc and release (DESIGN.md §8, "The in-use word stays in the segment").
type segment struct {
	verts [segSize]Vertex
	used  [segSize / 64]uint64
}

// SegmentBytes is the size of a segment: its 64 vertices and its in-use word.
const SegmentBytes = unsafe.Sizeof(segment{})

// freeShard is one partition's slice of the free set F: its own lock, a
// stack of released ids, and next, the cursor into the block it was dealt
// last: the lowest id of that block not yet handed out, NilVertex once
// every one has been. The shards are the only record of F: |F| is the sum of
// their stacks and cursors (Store.FreeCount). PEs allocate and release on
// their own partition, so no two PEs ever contend on the same shard lock; a
// serial store's shards, like its vertices, take none (the lock follows
// Config.Serial). The same lock guards recs, the spare overflow records of
// the partition's vertices. A shard fills one cache line, so adjacent
// shards do not false-share.
type freeShard struct {
	mu   lock.Mutex
	next VertexID // fills the 4 bytes after the lock
	ids  []VertexID
	recs []*overflow
}

// take pops the shard's top free id: the most recently released one, else
// the cursor's. The caller holds sh.mu.
func (sh *freeShard) take() (VertexID, bool) {
	if n := len(sh.ids); n > 0 {
		id := sh.ids[n-1]
		sh.ids = sh.ids[:n-1]
		return id, true
	}
	id := sh.next
	if id == NilVertex {
		return NilVertex, false
	}
	if sh.next++; id&segMask == 0 { // the block's last id
		sh.next = NilVertex
	}
	return id, true
}

// free returns how many ids the shard holds. The caller holds sh.mu.
func (sh *freeShard) free() int {
	n := len(sh.ids)
	if sh.next != NilVertex {
		n += segSize - int(sh.next-1)&segMask
	}
	return n
}

// Store owns every vertex in the computation graph and the per-partition
// free lists (the paper's set F), whose shards alone say what F holds.
// Vertex field access is guarded by per-vertex locks, or, on a serial
// store, by its owner running one task at a time; free-list access is
// sharded per partition, so Alloc/Release on different PEs never touch a
// shared lock, and a serial store's owner takes no shard lock either. A
// partition whose shard is empty is dealt the next block of 64 ids under
// one mutex, so Alloc(p) always returns a vertex of partition p, and the
// segment directory is read lock-free: a segment is published by an atomic
// store into its entry before V counts it. Construction costs
// O(partitions); a ForEach costs the vertices in use plus one directory
// entry per block dealt.
type Store struct {
	// dir is the segment directory, indexed by id-1 >> segBits, dense up to
	// n; deal replaces it, twice as long, when a block falls past its end.
	dir atomic.Pointer[[]atomic.Pointer[segment]]
	n   atomic.Int64 // |V|: the ids dealt, a multiple of 64 (excludes NilVertex)

	growMu sync.Mutex // guards dealing, chunks and the directory's growth; not taken by Alloc fast paths
	// chunks are the partitions' spare segments, made with the first
	// directory; guarded by growMu.
	chunks   []segChunk
	firstDir int // the entries of the first directory

	shards []freeShard
	// serial is Config.Serial, stamped on every shard and on every vertex as
	// it is dealt; markUsed writes the in-use bits plainly under it.
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

	// floorR and floorT are the stamps Alloc writes (AllocEpoch and
	// AllocEpochT): epochFloor of each context's counter at the last
	// Renormalise, 0 before the first. Either reads as before every epoch
	// its counter issues until the next pass (the wrap rule).
	floorR, floorT atomic.Uint32

	parts int
}

// NewStore builds an empty store of cfg.Partitions partitions. It touches
// no vertex: its cost is one shard per partition.
func NewStore(cfg Config) *Store {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > MaxPartitions {
		panic(fmt.Sprintf("graph: NewStore with %d partitions, more than %d", cfg.Partitions, MaxPartitions))
	}
	s := &Store{
		shards:   make([]freeShard, cfg.Partitions),
		serial:   cfg.Serial,
		parts:    cfg.Partitions,
		firstDir: max(firstDirSegments, (cfg.Capacity+segMask)>>segBits),
	}
	s.dir.Store(&noSegments)
	s.relMu.SetSerial(s.serial)
	for part := range s.shards {
		s.shards[part].mu.SetSerial(s.serial)
	}
	s.blank.home = s
	return s
}

// noSegments is the directory of a store that has dealt no block yet.
var noSegments []atomic.Pointer[segment]

// deal hands partition part the next block of ids: it writes the block's
// vertices, free and owned by part, into a segment of part's chunk,
// publishes the segment and then V's new size, and returns the block's
// first id, leaving the rest to sh's cursor. V is counted before any id of
// the block is free, so a reader that takes FreeCount before Len never
// reads more free vertices than V holds. It fails only when the 32-bit id
// space has no block left. The caller holds sh.mu, sh being part's shard.
func (s *Store) deal(part int, sh *freeShard) (VertexID, error) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	n := s.n.Load()
	if n+segSize > math.MaxUint32 {
		return NilVertex, ErrNoFreeVertices
	}
	segIdx := int(n >> segBits)
	dir := *s.dir.Load()
	if segIdx == len(dir) {
		dir = s.growDirLocked()
	}
	seg := s.newSegmentLocked(part)
	for i := range seg.verts {
		v := &seg.verts[i]
		v.ID = VertexID(n + 1 + int64(i))
		v.SetSerial(s.serial)
		v.Part = uint16(part)
		v.Kind = KindFree
		v.more = &s.blank
	}
	dir[segIdx].Store(seg)
	s.n.Store(n + segSize)
	sh.next = VertexID(n + 2)
	return VertexID(n + 1), nil
}

// growDirLocked publishes a directory twice as long as the last, or
// firstDir entries long, and returns it, so a store that keeps growing
// copies each entry about once. Readers holding the old directory miss only
// segments published after it was replaced, whose ids they cannot have been
// handed. The caller holds growMu.
func (s *Store) growDirLocked() []atomic.Pointer[segment] {
	old := *s.dir.Load()
	dir := make([]atomic.Pointer[segment], max(2*len(old), s.firstDir))
	for i := range old {
		dir[i].Store(old[i].Load())
	}
	s.dir.Store(&dir)
	return dir
}

// segChunk is what is left of the last chunk of segments a partition was
// given: one allocation holding the segments of the partition's next
// blocks. A partition's chunks hold 1, 2, 4, then maxChunk segments, so a
// program pays for at most about twice the blocks it reached, and a store
// that keeps growing makes one allocation per maxChunk blocks.
type segChunk struct {
	spare []segment
	size  int // the segments the last chunk held
}

// maxChunk bounds a chunk: 8 segments of 64 vertices, 48 KiB.
const maxChunk = 8

// newSegmentLocked returns a zeroed segment for partition part's next
// block, from its chunk, which is refilled, twice as long as the last, when
// empty. The caller holds growMu.
func (s *Store) newSegmentLocked(part int) *segment {
	if s.chunks == nil {
		s.chunks = make([]segChunk, s.parts)
	}
	c := &s.chunks[part]
	if len(c.spare) == 0 {
		c.size = min(max(1, 2*c.size), maxChunk)
		c.spare = make([]segment, c.size)
	}
	seg := &c.spare[0]
	c.spare = c.spare[1:]
	return seg
}

// Partitions returns the number of partitions.
func (s *Store) Partitions() int { return s.parts }

// Len returns the number of vertices in V, free or not, excluding the nil
// slot: every id of every block dealt, a multiple of 64.
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
	n := sh.free()
	sh.mu.Unlock()
	return n
}

// Vertex returns the vertex with the given ID, or nil for NilVertex and for
// an id no block dealt yet. The returned pointer is stable for the life of
// the store. Lock-free, and small enough to inline: NilVertex's slot index
// wraps to 2⁶⁴−1, so one unsigned test rejects it with every id past V, and
// the directory, loaded after n, holds the segment of every id below n.
func (s *Store) Vertex(id VertexID) *Vertex {
	i := uint64(id) - 1 // the slot index: id 1 in slot 0
	if i >= uint64(s.n.Load()) {
		return nil
	}
	return &(*s.dir.Load())[i>>segBits].Load().verts[i&segMask]
}

// Alloc takes a vertex from the free list of the given partition, dealing
// the partition a fresh block if the list is empty: the vertex is always
// the partition's own. It is returned labeled with the given kind/value,
// with no edges, ready for the caller to wire and splice in. It fails only
// when the 32-bit id space is exhausted.
//
// part must be a valid partition. A caller that passes an out-of-range
// partition is misrouting an allocation — silently clamping it to 0 would
// put the vertex on the wrong PE and mask the bug — so Alloc panics,
// naming the offending value (the same philosophy as sched.Machine.PartOf).
//
// Alloc stamps AllocEpoch/AllocEpochT with the floor of the last
// renormalisation (0 before the first), a stamp before every epoch either
// counter issues until the next: the vertex reads as allocated before the
// current cycle, which is only safe while no concurrent sweep runs (graph
// construction, tests). Mutators racing a collector must use AllocStamped.
func (s *Store) Alloc(part int, kind Kind, val int64) (*Vertex, error) {
	return s.AllocStamped(part, kind, val, s.floorR.Load(), s.floorT.Load())
}

// AllocStamped is Alloc with the vertex's alloc epochs written inside the
// same critical section that labels it non-free. The restructuring sweep
// runs concurrently with allocation; if the vertex became non-free with a
// stale epoch even briefly, a sweep scanning that window would see an
// unmarked, unprotected vertex and reclaim it before the caller wires it
// into the graph. Concurrent mutators pass FreshAllocEpoch for both stamps
// and let the splice primitive record the real epochs at wiring time.
func (s *Store) AllocStamped(part int, kind Kind, val int64, epochR, epochT uint32) (*Vertex, error) {
	if part < 0 || part >= s.parts {
		panic(fmt.Sprintf("graph: Alloc partition %d out of range [0,%d)", part, s.parts))
	}
	sh := &s.shards[part]
	sh.mu.Lock()
	id, ok := sh.take()
	if !ok {
		var err error
		if id, err = s.deal(part, sh); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	}
	sh.mu.Unlock()
	seg, slot := s.slotOf(id)
	s.markUsed(seg, slot, true)
	v := &seg.verts[slot]

	v.Lock()
	v.Kind = kind
	v.Val = val
	v.Red = RedState{AllocEpoch: epochR, AllocEpochT: epochT}
	v.Unlock()
	return v, nil
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

// clearUsed clears the in-use bit of a vertex handed out earlier.
func (s *Store) clearUsed(id VertexID) {
	seg, slot := s.slotOf(id)
	s.markUsed(seg, slot, false)
}

// slotOf returns the segment and the slot in it that hold id, a dealt id.
func (s *Store) slotOf(id VertexID) (*segment, int) {
	i := uint64(id) - 1
	return (*s.dir.Load())[i>>segBits].Load(), int(i & segMask)
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

// InUse reports whether id's in-use bit is set (see segment), taking no
// lock: whether it is out of F, and not retired since the last
// PublishRetired. id must have been dealt.
func (s *Store) InUse(id VertexID) bool {
	seg, slot := s.slotOf(id)
	return atomic.LoadUint64(&seg.used[slot>>6])&(1<<(slot&63)) != 0
}

// IsFree reports whether id is currently in F.
func (s *Store) IsFree(id VertexID) bool {
	v := s.Vertex(id)
	if v == nil {
		return false
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
	segs := int(s.n.Load() >> segBits)
	dir := *s.dir.Load()
	for si := range segs {
		seg := dir[si].Load()
		for w := range seg.used {
			for word := atomic.LoadUint64(&seg.used[w]); word != 0; word &= word - 1 {
				fn(&seg.verts[w<<6|bits.TrailingZeros64(word)])
			}
		}
	}
}

// Renormalise applies the wrap rule to every vertex dealt, free or in use:
// under its lock, each stamp that lags its context's counter (r for M_R, t
// for M_T) by more than epochLagMax is pulled forward to lag by that much.
// A free vertex is visited too, since its marking contexts outlive its stay
// in F (ResetFree). It first moves Alloc's floors to the same lag. The marker
// calls it while neither counter can advance; mutators may run, and what
// they stamp is current or a floor, which it leaves alone.
func (s *Store) Renormalise(r, t uint32) {
	s.floorR.Store(epochFloor(r))
	s.floorT.Store(epochFloor(t))
	segs := int(s.n.Load() >> segBits)
	dir := *s.dir.Load()
	for si := range segs {
		seg := dir[si].Load()
		for i := range seg.verts {
			v := &seg.verts[i]
			v.Lock()
			v.renormalise(r, t)
			v.Unlock()
		}
	}
}

// PartitionOf returns the partition that owns id (0 for invalid IDs): the
// Part its vertex was written with when its block was dealt.
func (s *Store) PartitionOf(id VertexID) int {
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
	// Every id starts as a free vertex of its immutable owner, and ForEach
	// then overwrites the ones in use.
	for id := 1; id <= n; id++ {
		snap.Verts[id] = SnapVertex{ID: VertexID(id), Part: s.PartitionOf(VertexID(id)), Kind: KindFree}
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
