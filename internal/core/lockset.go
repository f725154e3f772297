package core

import "dgr/internal/graph"

// lockSetInline is how many vertices a lockSet holds without touching the Go
// heap. The largest interpreted contraction, S', locks 8 (the redex, 3 fresh
// applies, 4 operands); compiled supercombinator bodies are the only sets
// that grow past that.
const lockSetInline = 12

// lockSet is the set of vertices one mutator primitive of a parallel machine
// manipulates, kept sorted by ID so that every primitive acquires its vertex
// locks in the same global order (the locking discipline in Mutator's doc).
// The primitive declares it in its own stack frame and has lockVertices or
// lockSpliceSet fill it: members sit in an inline array, and only a set
// larger than lockSetInline spills to a heap slice.
type lockSet struct {
	n      int
	inline [lockSetInline]*graph.Vertex
	spill  []*graph.Vertex // holds every member once n > lockSetInline
}

// members returns the set in ascending ID order.
func (s *lockSet) members() []*graph.Vertex {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// add inserts v at its place in ID order. A nil vertex and a vertex already
// in the set are skipped, so each member is locked exactly once.
func (s *lockSet) add(v *graph.Vertex) {
	if v == nil {
		return
	}
	m := s.members()
	i := len(m)
	for i > 0 && m[i-1].ID > v.ID {
		i--
	}
	if i > 0 && m[i-1].ID == v.ID {
		return
	}
	if s.spill == nil && s.n < lockSetInline {
		m = s.inline[:s.n+1]
	} else {
		if s.spill == nil {
			s.spill = append(make([]*graph.Vertex, 0, 2*lockSetInline), s.inline[:]...)
		}
		s.spill = append(s.spill, nil)
		m = s.spill
	}
	if i < s.n {
		copy(m[i+1:], m[i:])
	}
	m[i] = v
	s.n++
}

// lock acquires every member's lock in ascending ID order.
func (s *lockSet) lock() {
	for _, v := range s.members() {
		v.Lock()
	}
}

// unlock releases the locks in the reverse of the order lock took them.
func (s *lockSet) unlock() {
	m := s.members()
	for i := len(m) - 1; i >= 0; i-- {
		m[i].Unlock()
	}
}

// lockVertices is lockSpliceSet for the given vertices, the first of which
// is not nil (nils skipped, duplicates locked once).
func lockVertices(s *lockSet, vs ...*graph.Vertex) *lockSet {
	return lockSpliceSet(s, vs[0], vs[1:], nil)
}

// lockSpliceSet locks into s, in ascending ID order, what a splice primitive
// manipulates — the vertex being rewritten, the fresh vertices spliced below
// it and the existing vertices the splice will reference — and returns s for
// the caller's deferred unlock. On a serial store (a seeded machine's) it
// leaves s empty: the one owner running one task at a time is the
// primitive's atomicity, and there is no lock to take and no order to keep.
// This is the one place core tests the mode.
func lockSpliceSet(s *lockSet, v *graph.Vertex, fresh, existing []*graph.Vertex) *lockSet {
	if v.Serial() {
		return s
	}
	s.add(v)
	for _, g := range fresh {
		s.add(g)
	}
	for _, x := range existing {
		s.add(x)
	}
	s.lock()
	return s
}
