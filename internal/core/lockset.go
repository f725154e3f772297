package core

import "dgr/internal/graph"

// lockSetInline is how many vertices a lockSet holds without touching the Go
// heap. The largest interpreted contraction, S', locks 8 (the redex, 3 fresh
// applies, 4 operands); compiled supercombinator bodies are the only sets
// that grow past that (see DESIGN §8 for the measured spill share).
const lockSetInline = 12

// lockSet is the set of vertices one mutator primitive manipulates, kept
// sorted by ID so that every primitive acquires its vertex locks in the same
// global order (the locking discipline in Mutator's doc). It is a value meant
// to live in the primitive's stack frame: members sit in an inline array, and
// only a set larger than lockSetInline spills to a heap slice. On a serial
// store (a seeded machine's) the locks it takes are no-ops, so there is no
// order to keep: the set holds its members in the order they were added.
type lockSet struct {
	n      int
	inline [lockSetInline]*graph.Vertex
	spill  []*graph.Vertex // holds every member once n > lockSetInline
}

// members returns the set: in ascending ID order, unless its vertices are
// serial.
func (s *lockSet) members() []*graph.Vertex {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// add inserts v at its place in ID order, or, for a serial vertex, at the
// end. A nil vertex and a vertex already in the set are skipped, so each
// member is locked exactly once.
func (s *lockSet) add(v *graph.Vertex) {
	if v == nil {
		return
	}
	m := s.members()
	i := len(m)
	if v.Serial() {
		if s.find(v.ID) != nil {
			return
		}
	} else {
		for i > 0 && m[i-1].ID > v.ID {
			i--
		}
		if i > 0 && m[i-1].ID == v.ID {
			return
		}
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

// find returns the member with the given ID, or nil.
func (s *lockSet) find(id graph.VertexID) *graph.Vertex {
	for _, v := range s.members() {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// lock acquires every member's lock in ascending ID order (and none, on a
// serial store).
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

// lockVertices locks the given vertices in ascending ID order (nils skipped,
// duplicates locked once) and returns the set for the caller to unlock.
func lockVertices(vs ...*graph.Vertex) lockSet {
	var s lockSet
	for _, v := range vs {
		s.add(v)
	}
	s.lock()
	return s
}

// lockSpliceSet locks what a splice primitive manipulates — the vertex being
// rewritten, the fresh vertices spliced below it and the existing vertices
// the splice will reference — and returns the set.
func lockSpliceSet(v *graph.Vertex, fresh, existing []*graph.Vertex) lockSet {
	var s lockSet
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
