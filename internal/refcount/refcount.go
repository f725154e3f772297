// Package refcount implements the distributed reference-counting collector
// that §4 names as the prevailing alternative for distributed garbage
// collection — and whose deficiencies motivate the paper's marking
// algorithm: it cannot reclaim self-referencing structures, and it cannot
// perform the tracing necessary to identify task types or deadlock.
//
// Counts are maintained by increment/decrement messages processed from a
// queue, modelling the message traffic a real distributed RC scheme pays on
// every pointer mutation. Cross-partition messages are counted separately.
package refcount

import (
	"dgr/internal/graph"
	"dgr/internal/metrics"
)

// message is one reference-count adjustment in flight.
type message struct {
	from  graph.VertexID // holder of the reference (for message locality)
	to    graph.VertexID
	delta int64
}

// Collector is a reference-counting collector over a Store. It is not safe
// for concurrent use; the benchmarks drive it from the mutator thread, as a
// real RC scheme's write barrier would.
type Collector struct {
	store    *graph.Store
	counters *metrics.Counters

	counts map[graph.VertexID]int64
	queue  []message

	// rooted vertices are never reclaimed (the computation root and
	// registered external handles).
	rooted map[graph.VertexID]bool

	msgs       int64
	remoteMsgs int64
	freed      int64
}

// New builds a collector. counters may be nil.
func New(store *graph.Store, counters *metrics.Counters) *Collector {
	return &Collector{
		store:    store,
		counters: counters,
		counts:   make(map[graph.VertexID]int64),
		rooted:   make(map[graph.VertexID]bool),
	}
}

// Root registers a vertex as externally held (count +1, never collected
// while rooted).
func (c *Collector) Root(id graph.VertexID) {
	c.rooted[id] = true
	c.counts[id]++
}

// Unroot drops the external reference, enqueueing a decrement.
func (c *Collector) Unroot(id graph.VertexID) {
	if !c.rooted[id] {
		return
	}
	delete(c.rooted, id)
	c.queue = append(c.queue, message{from: graph.NilVertex, to: id, delta: -1})
}

// InitFromGraph (re)derives all counts from the current edges. Call once
// after graph construction.
func (c *Collector) InitFromGraph() {
	c.store.ForEach(func(v *graph.Vertex) {
		v.Lock()
		defer v.Unlock()
		if v.Kind == graph.KindFree {
			return
		}
		for _, a := range v.Args() {
			c.counts[a]++
		}
	})
}

// AddRef records a new reference from → to (write barrier on edge
// creation): one RC message.
func (c *Collector) AddRef(from, to graph.VertexID) {
	c.queue = append(c.queue, message{from: from, to: to, delta: 1})
}

// DropRef records a removed reference from → to: one RC message.
func (c *Collector) DropRef(from, to graph.VertexID) {
	c.queue = append(c.queue, message{from: from, to: to, delta: -1})
}

// Process drains the message queue, reclaiming vertices whose count
// reaches zero (recursively enqueueing decrements for their children). It
// returns the number of vertices reclaimed by this drain.
func (c *Collector) Process() int {
	freedNow := 0
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		c.msgs++
		if m.from != graph.NilVertex &&
			c.store.PartitionOf(m.from) != c.store.PartitionOf(m.to) {
			c.remoteMsgs++
		}
		c.counts[m.to] += m.delta
		if c.counts[m.to] > 0 || c.rooted[m.to] {
			continue
		}
		v := c.store.Vertex(m.to)
		if v == nil {
			continue
		}
		v.Lock()
		if v.Kind == graph.KindFree {
			v.Unlock()
			continue
		}
		children := append([]graph.VertexID(nil), v.Args()...)
		v.Unlock()
		for _, ch := range children {
			c.queue = append(c.queue, message{from: m.to, to: ch, delta: -1})
		}
		c.store.Release(v)
		delete(c.counts, m.to)
		freedNow++
		c.freed++
	}
	if c.counters != nil {
		c.counters.Reclaimed.Add(int64(freedNow))
	}
	return freedNow
}

// Stats reports cumulative message and reclamation counts.
func (c *Collector) Stats() (msgs, remote, freed int64) {
	return c.msgs, c.remoteMsgs, c.freed
}

// Count returns the current reference count of id.
func (c *Collector) Count(id graph.VertexID) int64 { return c.counts[id] }
