package task

import "slices"

// ring is a growable FIFO ring buffer of tasks: the storage behind one
// priority band of a Pool. The old implementation held each band in a
// plain slice and popped with bands[b] = bands[b][1:], which both leaks
// (the backing array retains every already-popped head until the next
// append reallocates) and churns allocations under steady push/pop. A
// ring pops by advancing an index, so steady-state traffic runs entirely
// inside buffers it reuses; it grows only when the band's high-water mark
// rises.
//
// Up to ringChunk tasks a ring is one buffer that doubles; past it the ring
// grows a chunk of ringChunk at a time, so a new peak costs one chunk, not a
// copy of the whole band. A marking band's peak moves from cycle to cycle
// with the cut arcs its partition receives, and a doubling that lands in
// one evaluation and not in the next would make their allocations differ by
// the band's whole size.
//
// Task holds no pointers, so popped slots need no clearing for the GC.
type ring struct {
	// buf is the one buffer, a power of two up to ringChunk, until the ring
	// outgrows it; then chunks holds the slots, ringChunk to a chunk, and
	// buf is nil. Slot p is chunks[p/ringChunk][p%ringChunk].
	buf    []Task
	chunks *[][]Task
	head   int32 // slot of the FIFO-first element; meaningful only when n > 0
	n      int32
}

const (
	ringChunkShift = 7
	ringChunk      = 1 << ringChunkShift
)

// len returns the number of queued tasks.
func (r *ring) len() int { return int(r.n) }

// size returns the number of slots.
func (r *ring) size() int {
	if r.chunks == nil {
		return len(r.buf)
	}
	return len(*r.chunks) << ringChunkShift
}

// at returns a pointer to the i-th task in FIFO order (0 = front).
// The pointer is invalidated by any push or grow.
func (r *ring) at(i int) *Task {
	p := int(r.head) + i
	if r.chunks == nil {
		return &r.buf[p&(len(r.buf)-1)]
	}
	c := *r.chunks
	if size := len(c) << ringChunkShift; p >= size {
		p -= size
	}
	return &c[p>>ringChunkShift][p&(ringChunk-1)]
}

// push appends t at the tail.
func (r *ring) push(t Task) {
	if r.len() == r.size() {
		r.grow()
	}
	*r.at(r.len()) = t
	r.n++
}

// grow makes room for one more task in a full ring. Below ringChunk it
// doubles the buffer, unwrapping the live elements to the front. Past it, it
// rotates the chunks so that the head's comes first and appends a chunk,
// into which it copies the tasks that had wrapped round into the head's
// chunk in front of the head: they now follow the last full chunk.
func (r *ring) grow() {
	if n := len(r.buf); r.chunks == nil && n < ringChunk {
		buf := make([]Task, max(16, 2*n))
		for i := range r.len() {
			buf[i] = *r.at(i)
		}
		r.buf = buf
		r.head = 0
		return
	}
	if r.chunks == nil {
		r.chunks = &[][]Task{r.buf}
		r.buf = nil
	}
	c := *r.chunks
	hc, ho := int(r.head)>>ringChunkShift, int(r.head)&(ringChunk-1)
	slices.Reverse(c[:hc])
	slices.Reverse(c[hc:])
	slices.Reverse(c)
	next := make([]Task, ringChunk)
	copy(next, c[0][:ho])
	*r.chunks = append(c, next)
	r.head = int32(ho)
}

// advance moves head past the FIFO-first slot.
func (r *ring) advance() {
	if r.head++; int(r.head) == r.size() {
		r.head = 0
	}
}

// popFront removes and returns the FIFO-first task. The ring must be
// non-empty.
func (r *ring) popFront() Task {
	t := *r.at(0)
	r.advance()
	r.n--
	return t
}

// removeAt removes and returns the i-th task in FIFO order, preserving the
// order of the remaining tasks. It shifts whichever side of i is shorter.
func (r *ring) removeAt(i int) Task {
	t := *r.at(i)
	if i < r.len()-1-i {
		// Shift the front segment [0, i) back by one and advance head.
		for j := i; j > 0; j-- {
			*r.at(j) = *r.at(j - 1)
		}
		r.advance()
	} else {
		// Shift the tail segment (i, n) forward by one.
		for j := i; j < r.len()-1; j++ {
			*r.at(j) = *r.at(j + 1)
		}
	}
	r.n--
	return t
}

// filter keeps only the tasks for which keep returns true, preserving FIFO
// order, and returns how many were removed. keep is called in FIFO order
// and may mutate the task through the pointer; mutations to kept tasks are
// retained in place.
func (r *ring) filter(keep func(*Task) bool) int { return r.filterFirst(r.len(), keep) }

// filterFirst is filter over the first n tasks only; the tasks behind them
// are kept, unseen.
func (r *ring) filterFirst(n int, keep func(*Task) bool) int {
	w := 0
	for i := 0; i < r.len(); i++ {
		// keep gets the slot itself: a copy whose address is passed to a func
		// value escapes, one heap object per queued task per call.
		p := r.at(i)
		if i >= n || keep(p) {
			if w != i {
				*r.at(w) = *p
			}
			w++
		}
	}
	removed := r.len() - w
	r.n = int32(w)
	return removed
}
