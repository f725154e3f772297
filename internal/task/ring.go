package task

// ring is a growable FIFO ring buffer of tasks: the storage behind one
// priority band of a Pool. The old implementation held each band in a
// plain slice and popped with bands[b] = bands[b][1:], which both leaks
// (the backing array retains every already-popped head until the next
// append reallocates) and churns allocations under steady push/pop. A
// ring pops by advancing an index, so steady-state traffic runs entirely
// inside one reused buffer; it grows by doubling only when the band's
// high-water mark rises.
//
// Task holds no pointers, so popped slots need no clearing for the GC.
// Capacity is always a power of two (or zero) so position arithmetic is a
// mask, not a modulo.
type ring struct {
	buf  []Task
	head int // index of the FIFO-first element; meaningful only when n > 0
	n    int
}

// len returns the number of queued tasks.
func (r *ring) len() int { return r.n }

// at returns a pointer to the i-th task in FIFO order (0 = front).
// The pointer is invalidated by any push or grow.
func (r *ring) at(i int) *Task {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// push appends t at the tail.
func (r *ring) push(t Task) {
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	*r.at(r.n) = t
	r.n++
}

// grow reallocates to the smallest power-of-two capacity holding at least
// need, unwrapping the live elements to the front.
func (r *ring) grow(need int) {
	newCap := len(r.buf)
	if newCap == 0 {
		newCap = 16
	}
	for newCap < need {
		newCap *= 2
	}
	buf := make([]Task, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf = buf
	r.head = 0
}

// popFront removes and returns the FIFO-first task. The ring must be
// non-empty.
func (r *ring) popFront() Task {
	t := *r.at(0)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// removeAt removes and returns the i-th task in FIFO order, preserving the
// order of the remaining tasks. It shifts whichever side of i is shorter.
func (r *ring) removeAt(i int) Task {
	t := *r.at(i)
	if i < r.n-1-i {
		// Shift the front segment [0, i) back by one and advance head.
		for j := i; j > 0; j-- {
			*r.at(j) = *r.at(j - 1)
		}
		r.head = (r.head + 1) & (len(r.buf) - 1)
	} else {
		// Shift the tail segment (i, n) forward by one.
		for j := i; j < r.n-1; j++ {
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
func (r *ring) filter(keep func(*Task) bool) int {
	w := 0
	for i := 0; i < r.n; i++ {
		// keep gets the slot itself: a copy whose address is passed to a func
		// value escapes, one heap object per queued task per call.
		p := r.at(i)
		if keep(p) {
			if w != i {
				*r.at(w) = *p
			}
			w++
		}
	}
	removed := r.n - w
	r.n = w
	return removed
}
