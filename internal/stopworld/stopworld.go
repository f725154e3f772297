// Package stopworld implements the conventional stop-the-world baseline:
// halt every processing element, mark sequentially from the root with a
// centralized stack, sweep, and resume. It is the collector the paper's
// decentralized concurrent algorithm is designed to supersede ("this would
// require that the computation be halted while marking takes place...
// most marking algorithms are sequential and use a centralized control",
// §4), and provides the pause-time baseline for experiment E8.
package stopworld

import (
	"time"

	"dgr/internal/graph"
)

// Result summarizes one stop-the-world collection.
type Result struct {
	// Marked is the number of live vertices traced.
	Marked int
	// Reclaimed is the number of garbage vertices returned to F.
	Reclaimed int
	// Pause is how long the world was stopped.
	Pause time.Duration
}

// Collect performs one stop-the-world collection: the caller must
// guarantee the mutator is halted for the duration (in deterministic
// harnesses, simply do not step the machine; in parallel harnesses, stop
// the PEs first).
func Collect(store *graph.Store, roots ...graph.VertexID) Result {
	start := time.Now()

	// Mark: sequential, centralized stack.
	live := make(map[graph.VertexID]bool)
	stack := append([]graph.VertexID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == graph.NilVertex || live[id] {
			continue
		}
		v := store.Vertex(id)
		if v == nil {
			continue
		}
		live[id] = true
		v.Lock()
		stack = append(stack, v.Args()...)
		v.Unlock()
	}

	// Sweep.
	var garbage []*graph.Vertex
	store.ForEach(func(v *graph.Vertex) {
		v.Lock()
		free := v.Kind == graph.KindFree
		v.Unlock()
		if !free && !live[v.ID] {
			garbage = append(garbage, v)
		}
	})
	store.ReleaseBatch(garbage)

	return Result{
		Marked:    len(live),
		Reclaimed: len(garbage),
		Pause:     time.Since(start),
	}
}
