package graph

// overflow holds what does not fit in a vertex: an args set larger than
// inlineArgs with its request kinds, a requested set larger than
// inlineReqs, and the causal-lineage context of a traced task. The sets
// start out in the record's own arrays, so a spill of up to four args or
// two requesters costs no allocation beyond the record, and a recycled
// record keeps whatever its sets grew to. The record is 128 bytes.
//
// A vertex holds a record exactly while it needs one: it takes one when a
// set outgrows the vertex or a lineage context is published, and gives it
// back when the last of these is gone (or ResetFree reclaims the vertex).
// The store keeps the spares on the free-list shard of the vertex's
// partition, under the shard's lock, so the records a machine makes number
// the vertices spilled at one time. A record that stayed with its vertex
// would be paid once per id that ever spilled — over a machine's life,
// most of them (a three-operand if, a thunk with a second requester).
type overflow struct {
	args  []VertexID
	kinds []ReqKind
	reqs  []Requester
	trace uint64
	span  uint32

	argBuf  [4]VertexID
	kindBuf [4]ReqKind
	reqBuf  [2]Requester

	// home is the store the record belongs to, nil for a vertex made
	// outside a store.
	home *Store
}

func newOverflow(home *Store) *overflow {
	o := &overflow{home: home}
	o.args, o.kinds, o.reqs = o.argBuf[:0], o.kindBuf[:0], o.reqBuf[:0]
	return o
}

// ownsRecord reports whether v holds an overflow record of its own. A
// vertex a store materialises points at the store's blank record until it
// takes one, so that its sets can reach the store's spares.
func (v *Vertex) ownsRecord() bool {
	o := v.more
	return o != nil && (o.home == nil || o != &o.home.blank)
}

// overflowRec returns v's own overflow record, taking a spare from its
// store if it has none.
func (v *Vertex) overflowRec() *overflow {
	if v.ownsRecord() {
		return v.more
	}
	var o *overflow
	if v.more == nil {
		o = newOverflow(nil)
	} else {
		o = v.more.home.takeRecord(int(v.Part))
	}
	v.more = o
	return o
}

// dropIdleRecord gives v's record back once it holds nothing: both sets
// are inline and no lineage context is set. v owns a record.
func (v *Vertex) dropIdleRecord() {
	if o := v.more; v.na != spilled && v.nr != spilled && o.trace == 0 && o.span == 0 {
		v.releaseRecord()
	}
}

// releaseRecord empties v's own record and returns it to its store's
// spares; a vertex made outside a store drops it.
func (v *Vertex) releaseRecord() {
	o := v.more
	o.args, o.kinds, o.reqs = o.args[:0], o.kinds[:0], o.reqs[:0]
	o.trace, o.span = 0, 0
	if s := o.home; s != nil {
		v.more = &s.blank
		s.putRecord(int(v.Part), o)
	} else {
		v.more = nil
	}
}

// takeRecord pops a spare record of partition part, or makes one. The
// caller holds the lock of the vertex that will own it; the shard lock
// nests inside it, as in putRecord.
func (s *Store) takeRecord(part int) *overflow {
	sh := &s.shards[part]
	sh.mu.Lock()
	var o *overflow
	if n := len(sh.recs); n > 0 {
		o = sh.recs[n-1]
		sh.recs = sh.recs[:n-1]
	}
	sh.mu.Unlock()
	if o == nil {
		o = newOverflow(s)
	}
	return o
}

// putRecord pushes an emptied record on partition part's spares.
func (s *Store) putRecord(part int, o *overflow) {
	sh := &s.shards[part]
	sh.mu.Lock()
	sh.recs = append(sh.recs, o)
	sh.mu.Unlock()
}
