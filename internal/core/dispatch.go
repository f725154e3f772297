package core

import (
	"sync/atomic"

	"dgr/internal/sched"
	"dgr/internal/task"
)

// Dispatcher routes marking tasks to the Marker and reduction tasks to the
// reduction engine. It is the Handler installed on the PE machine, making
// the two processes share the same processing elements — marking executes
// "concurrently with the graph reduction process" by interleaving in the
// same pools.
type Dispatcher struct {
	marker  *Marker
	reducer sched.Handler
}

var _ sched.Handler = (*Dispatcher)(nil)

// NewDispatcher builds a dispatcher; reducer may be nil for marking-only
// machines (e.g. the basic-algorithm tests).
func NewDispatcher(marker *Marker, reducer sched.Handler) *Dispatcher {
	return &Dispatcher{marker: marker, reducer: reducer}
}

// Handle implements sched.Handler.
func (d *Dispatcher) Handle(pe int, t task.Task) {
	if t.Kind.IsMarking() {
		d.marker.Handle(pe, t)
		return
	}
	if d.reducer != nil {
		d.reducer.Handle(pe, t)
	}
}

// Halter is a handler with a stop: after Halt every task is a no-op. A
// parallel machine being closed halts before it stops its PEs — they leave
// only once their pools are empty, and a divergent reduction, or speculation
// nobody expunges any more, would keep refilling them for ever.
type Halter struct {
	sched.Handler
	halted atomic.Bool
}

// Halt stops the handler.
func (h *Halter) Halt() { h.halted.Store(true) }

// Handle implements sched.Handler.
func (h *Halter) Handle(pe int, t task.Task) {
	if !h.halted.Load() {
		h.Handler.Handle(pe, t)
	}
}
