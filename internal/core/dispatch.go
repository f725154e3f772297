package core

import (
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
