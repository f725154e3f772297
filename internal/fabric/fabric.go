// Package fabric simulates the inter-PE message network of the paper's
// model. The paper's PEs have only local store and communicate exclusively
// by propagating task messages <s,d> between adjacent vertices; before this
// package, the scheduler's Spawn pushed cross-partition tasks straight into
// the destination pool and merely counted them. The fabric makes the network
// real enough to measure and to break:
//
//   - Batching/coalescing: each ordered PE pair (a link) has an outbox;
//     cross-partition tasks buffer there and flush as a batch when the outbox
//     reaches BatchSize or its oldest task has waited FlushEvery. A batch
//     arrives at the destination pool in one PushBatch — one lock, one
//     wakeup — amortizing per-message dispatch overhead the way PELCR-style
//     aggregated message passing does.
//
//   - Fault injection: per-link latency, jitter, reorder, and drop
//     probability. Delivery is at-least-once: batches carry per-link
//     sequence numbers, the receiver acks, the sender retransmits unacked
//     batches after a retry timeout, and the receiver dedups by sequence
//     number, so every task is delivered into its pool exactly once even at
//     10% drop.
//
//   - Observability: sent/delivered/dropped/retried/batched counts and an
//     enqueue→delivery latency histogram, kept in one metrics.Counters (the
//     caller's, or a private one).
//
// The fabric has one event loop, runDue, that runs every flush, arrival and
// retry due at a given time, and one clock unit, the microsecond. Only the
// clock's source differs between the scheduler's two modes. In deterministic
// mode time is virtual: one scheduler step is one tick, Tick advances the
// clock, and Advance fast-forwards to the next due event when every pool is
// empty, so a seeded run replays the identical loss schedule. In parallel
// mode the clock is the wall time since New, and a pump goroutine runs the
// loop once per period (see pumpPeriod).
//
// Custody accounting: a task in the fabric (outbox or undelivered batch)
// still counts against the machine's inflight counter, so quiescence
// detection waits for in-transit messages; Each and Expunge expose those
// tasks to the collector's M_T snapshot and restructuring phase.
package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/task"
)

// maxDropRate caps fault injection so retransmission always makes progress.
const maxDropRate = 0.95

// Params are the network's own dials: what a user of the machine may set.
// The zero value is a working fabric with the defaults below; the
// retransmission timeout is derived from FlushEvery, LinkLatency and Jitter.
type Params struct {
	BatchSize   int           // flush an outbox at this many tasks (default 16)
	FlushEvery  time.Duration // flush an outbox when its oldest task is this old (default 100µs)
	LinkLatency time.Duration // fixed one-way latency per transmission
	Jitter      time.Duration // additional uniform random latency
	DropRate    float64       // per-transmission loss probability, clamped to 0.95
	ReorderRate float64       // probability a batch is held back behind later traffic
}

// Config parameterizes a Fabric: the dials, and what the machine it runs in
// supplies (sched.New builds a machine's fabric from its own settings).
type Config struct {
	PEs      int
	Parallel bool // wall clock and the pump goroutine instead of Tick/Advance
	Seed     int64

	Params

	Counters *metrics.Counters // shared counters; New supplies private ones when nil
	// Obs, when non-nil, receives the fab.* message-lifecycle events and a
	// "fab-batch" span per delivered batch (flush to first delivery); when
	// its lineage tracing is on, also one "fabric-hop" span per traced task
	// per delivered batch (flush to delivery) and a "fabric-retry" point
	// span per retransmission carrying traced tasks.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 100 * time.Microsecond
	}
	if c.DropRate < 0 {
		c.DropRate = 0
	}
	if c.DropRate > maxDropRate {
		c.DropRate = maxDropRate
	}
	if c.ReorderRate < 0 {
		c.ReorderRate = 0
	}
	if c.ReorderRate > 1 {
		c.ReorderRate = 1
	}
	if c.Counters == nil {
		c.Counters = &metrics.Counters{}
	}
	return c
}

// Fabric is the inter-PE network: PEs*(PEs-1) independent links, each with
// an outbox, an unacked-batch window, and fault-injection state.
type Fabric struct {
	cfg     Config
	links   []*link // index from*PEs+to; nil on the diagonal
	deliver func(pe int, ts []task.Task)

	pending   atomic.Int64 // tasks in custody: outboxes + undelivered batches
	busyLinks atomic.Int64 // links with any outbox/unacked state
	tick      atomic.Int64 // deterministic virtual clock
	start     time.Time    // parallel clock origin
	closed    atomic.Bool

	// Duration knobs in clock units (µs).
	flushD, latD, jitD, retryD int64

	stop chan struct{}
	wg   sync.WaitGroup
}

type link struct {
	f        *Fabric
	from, to int
	busy     atomic.Bool // has outbox or unacked state (fast-path skip)

	mu         sync.Mutex
	rng        *rand.Rand
	outbox     []task.Task
	outboxBorn int64 // clock when the oldest outbox task was enqueued
	nextSeq    uint64
	unacked    map[uint64]*batch
}

// batch is a flushed group of tasks awaiting acknowledgement. The "wire"
// carries only (link, seq): task data stays sender-side until the arrival
// event reads it under the link lock, which makes expungement of in-transit
// tasks and receiver-side dedup trivial.
type batch struct {
	seq      uint64
	tasks    []task.Task
	born     int64 // fabric clock when the oldest task entered the outbox
	flushed  int64 // obs clock at flush (0 when obs is disabled)
	attempts int
	inFlight bool  // a transmission is en route
	dueAt    int64 // arrival time of that transmission
	retryAt  int64 // when to retransmit if not in flight (0 = not scheduled)
	// delivered means the receiver has the tasks but the ack was lost; the
	// batch stays in the window so retransmissions can be re-acked, and the
	// receiver suppresses the duplicate.
	delivered bool
}

// New builds a fabric. SetDeliver must be called before the first Enqueue.
func New(cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	f := &Fabric{cfg: cfg, start: time.Now()}
	f.flushD = delta(cfg.FlushEvery)
	f.latD = delta(cfg.LinkLatency)
	f.jitD = delta(cfg.Jitter)
	// An unacked batch is retransmitted after two flush periods plus four
	// worst-case transits, and never sooner than 1ms.
	f.retryD = delta(max(2*cfg.FlushEvery+4*(cfg.LinkLatency+cfg.Jitter), time.Millisecond))
	f.links = make([]*link, cfg.PEs*cfg.PEs)
	for s := 0; s < cfg.PEs; s++ {
		for d := 0; d < cfg.PEs; d++ {
			if s == d {
				continue
			}
			idx := s*cfg.PEs + d
			f.links[idx] = &link{
				f:       f,
				from:    s,
				to:      d,
				rng:     rand.New(rand.NewSource(cfg.Seed*7919 + int64(idx)*104729 + 1)),
				unacked: make(map[uint64]*batch),
			}
		}
	}
	return f
}

// SetDeliver installs the delivery sink: the scheduler's per-PE pool push.
func (f *Fabric) SetDeliver(fn func(pe int, ts []task.Task)) { f.deliver = fn }

// delta converts a duration knob to clock units: whole microseconds, at
// least one for a positive knob.
func delta(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return max(int64(d/time.Microsecond), 1)
}

// now reads the clock in µs: the virtual tick, or the wall time since New.
func (f *Fabric) now() int64 {
	if f.cfg.Parallel {
		return int64(time.Since(f.start) / time.Microsecond)
	}
	return f.tick.Load()
}

func (f *Fabric) link(from, to int) *link {
	if from < 0 || to < 0 || from >= f.cfg.PEs || to >= f.cfg.PEs || from == to {
		return nil
	}
	return f.links[from*f.cfg.PEs+to]
}

// Enqueue accepts a cross-partition task from PE `from` addressed to PE
// `to`. The task buffers in the link's outbox until a count or deadline
// flush. Degenerate routes (from == to, closed fabric) bypass the network
// and deliver directly so no task is ever lost. The closed test is made
// under the link lock, which Close takes after setting it, so no task
// enters an outbox that Close has already emptied.
func (f *Fabric) Enqueue(from, to int, t task.Task) {
	lk := f.link(from, to)
	if lk == nil {
		f.deliver(to, []task.Task{t})
		return
	}
	now := f.now()
	lk.mu.Lock()
	if f.closed.Load() {
		lk.mu.Unlock()
		f.deliver(to, []task.Task{t})
		return
	}
	if len(lk.outbox) == 0 {
		lk.outboxBorn = now
	}
	lk.outbox = append(lk.outbox, t)
	lk.markBusyLocked()
	f.pending.Add(1)
	f.cfg.Counters.FabricSent.Add(1)
	if len(lk.outbox) >= f.cfg.BatchSize {
		if b := lk.flushLocked(); b != nil {
			lk.transmitLocked(b, now)
		}
	}
	lk.mu.Unlock()
}

// flushLocked seals the outbox into a sequence-numbered batch and places it
// in the unacked window. Caller holds lk.mu.
func (lk *link) flushLocked() *batch {
	if len(lk.outbox) == 0 {
		return nil
	}
	lk.nextSeq++
	b := &batch{seq: lk.nextSeq, tasks: lk.outbox, born: lk.outboxBorn,
		flushed: lk.f.cfg.Obs.Now()}
	lk.outbox = nil
	lk.unacked[b.seq] = b
	lk.f.cfg.Counters.FabricBatches.Add(1)
	lk.event("fab.flush", b)
	return b
}

// transmitLocked puts one copy of the batch on the wire. Caller holds lk.mu.
func (lk *link) transmitLocked(b *batch, now int64) {
	f := lk.f
	b.attempts++
	b.retryAt = 0
	if b.attempts > 1 {
		f.cfg.Counters.FabricRetries.Add(1)
		lk.event("fab.retry", b)
		if s := f.cfg.Obs.Lineage(); s != nil {
			now := obs.Now()
			for _, t := range b.tasks {
				if t.Trace == 0 {
					continue
				}
				s.Record(obs.TraceSpan{Trace: t.Trace, Span: s.NewSpan(),
					Parent: t.Span(), Name: "fabric-retry", Cat: obs.CatFabric,
					PE: lk.to, Start: now, End: now, N: int64(b.attempts),
					Note: fmt.Sprintf("from=%d to=%d seq=%d", lk.from, lk.to, b.seq)})
			}
		}
	}
	delay := f.latD
	if f.jitD > 0 {
		delay += lk.rng.Int63n(f.jitD + 1)
	}
	if f.cfg.ReorderRate > 0 && lk.rng.Float64() < f.cfg.ReorderRate {
		// Reorder fault: hold this copy back a full latency+flush window so
		// batches flushed after it overtake it.
		delay += f.latD + f.flushD
	}
	b.inFlight = true
	b.dueAt = now + delay
	if delay <= 0 {
		lk.arriveLocked(b, now)
	}
}

// arriveLocked is one transmission reaching the receiver: roll for drop,
// deliver (or suppress the duplicate), then roll for ack loss. Caller holds
// lk.mu; the delivery sink is invoked under it — pools are leaf locks.
func (lk *link) arriveLocked(b *batch, now int64) {
	f := lk.f
	b.inFlight = false
	b.dueAt = 0
	c := f.cfg.Counters
	if f.cfg.DropRate > 0 && lk.rng.Float64() < f.cfg.DropRate {
		c.FabricDropped.Add(1)
		lk.event("fab.drop", b)
		b.retryAt = now + f.retryD
		return
	}
	if !b.delivered {
		b.delivered = true
		n := int64(len(b.tasks))
		c.FabricDelivered.Add(n)
		c.FabricLatency.Observe(now - b.born)
		lk.event("fab.deliver", b)
		f.cfg.Obs.Span("fab-batch", obs.CatFabric, obs.TIDFabric, b.flushed, n)
		if s := f.cfg.Obs.Lineage(); s != nil {
			now := obs.Now()
			for _, t := range b.tasks {
				if t.Trace == 0 {
					continue
				}
				s.Record(obs.TraceSpan{Trace: t.Trace, Span: s.NewSpan(),
					Parent: t.Span(), Name: "fabric-hop", Cat: obs.CatFabric,
					PE: lk.to, Start: b.flushed, End: now, N: int64(b.attempts),
					Note: fmt.Sprintf("from=%d to=%d seq=%d attempts=%d",
						lk.from, lk.to, b.seq, b.attempts)})
			}
		}
		if n > 0 {
			f.deliver(lk.to, b.tasks)
		}
		// Custody ends only once the sink has the tasks: Pending() == 0
		// means delivered, not about to be.
		f.pending.Add(-n)
	} else {
		// Receiver-side dedup: it has seen seq already; just re-ack.
		c.FabricDuplicates.Add(1)
		lk.event("fab.dup", b)
	}
	// The ack crosses the same lossy link.
	if f.cfg.DropRate > 0 && lk.rng.Float64() < f.cfg.DropRate {
		c.FabricAcksDropped.Add(1)
		lk.event("fab.ackdrop", b)
		b.retryAt = now + f.retryD
		return
	}
	delete(lk.unacked, b.seq)
}

func (lk *link) markBusyLocked() {
	if !lk.busy.Load() {
		lk.busy.Store(true)
		lk.f.busyLinks.Add(1)
	}
}

func (lk *link) syncBusyLocked() {
	idle := len(lk.outbox) == 0 && len(lk.unacked) == 0
	if idle && lk.busy.Load() {
		lk.busy.Store(false)
		lk.f.busyLinks.Add(-1)
	}
}

// Tick advances the deterministic virtual clock by one tick (the scheduler
// calls it once per Step) and runs every due flush, arrival, and retry.
func (f *Fabric) Tick() {
	if f.cfg.Parallel {
		return
	}
	now := f.tick.Add(1)
	if f.busyLinks.Load() == 0 {
		return
	}
	f.runDue(now)
}

// runDue is the fabric's one event loop: Tick, Advance and the parallel
// pump all run every link's due events through it.
func (f *Fabric) runDue(now int64) {
	for _, lk := range f.links {
		if lk == nil || !lk.busy.Load() {
			continue
		}
		lk.runDue(now)
	}
}

// runDue executes every event on the link due at or before now. Events run
// in deterministic order (arrivals by due time then sequence, retries by
// retry time then sequence) so the seeded rng stream replays identically.
func (lk *link) runDue(now int64) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if len(lk.outbox) > 0 && now >= lk.outboxBorn+lk.f.flushD {
		if b := lk.flushLocked(); b != nil {
			lk.transmitLocked(b, now)
		}
	}
	var due, retry []*batch
	for _, b := range lk.unacked {
		switch {
		case b.inFlight && b.dueAt > 0 && now >= b.dueAt:
			due = append(due, b)
		case !b.inFlight && b.retryAt > 0 && now >= b.retryAt:
			retry = append(retry, b)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].dueAt != due[j].dueAt {
			return due[i].dueAt < due[j].dueAt
		}
		return due[i].seq < due[j].seq
	})
	sort.Slice(retry, func(i, j int) bool {
		if retry[i].retryAt != retry[j].retryAt {
			return retry[i].retryAt < retry[j].retryAt
		}
		return retry[i].seq < retry[j].seq
	})
	for _, b := range due {
		lk.arriveLocked(b, now)
	}
	for _, b := range retry {
		if lk.unacked[b.seq] != nil { // may have been acked by an earlier arrival
			lk.transmitLocked(b, now)
		}
	}
	lk.syncBusyLocked()
}

// Advance fast-forwards to the next due fabric event and runs it. It
// returns false when no tasks are in transit — the scheduler calls it only
// when every pool is empty, so false there means quiescence. Each call
// makes progress: the clock jumps straight to the earliest flush deadline,
// arrival, or retry. A parallel fabric's wall clock cannot jump, so there
// the event simply runs early (Close relies on this).
func (f *Fabric) Advance() bool {
	if f.pending.Load() == 0 {
		return false
	}
	next := int64(math.MaxInt64)
	for _, lk := range f.links {
		if lk == nil || !lk.busy.Load() {
			continue
		}
		lk.mu.Lock()
		if len(lk.outbox) > 0 {
			if d := lk.outboxBorn + f.flushD; d < next {
				next = d
			}
		}
		for _, b := range lk.unacked {
			switch {
			case b.inFlight && b.dueAt > 0 && b.dueAt < next:
				next = b.dueAt
			case !b.inFlight && b.retryAt > 0 && b.retryAt < next:
				next = b.retryAt
			}
		}
		lk.mu.Unlock()
	}
	if next == math.MaxInt64 {
		return false
	}
	next = max(next, f.now())
	f.tick.Store(next)
	f.runDue(next)
	return true
}

// Start launches the parallel-mode pump goroutine that runs the event loop
// on the wall clock. No-op in deterministic mode.
func (f *Fabric) Start() {
	if !f.cfg.Parallel || f.closed.Load() {
		return
	}
	f.stop = make(chan struct{})
	f.wg.Add(1)
	go f.pump()
}

// pumpPeriod is how often the pump runs the event loop, so an arrival or
// flush lands at most one period after it is due: the shorter of FlushEvery
// and LinkLatency (when set), floored at 50µs. The retry timeout is at
// least twice FlushEvery, so it never sets the period.
func (f *Fabric) pumpPeriod() time.Duration {
	p := f.cfg.FlushEvery
	if f.cfg.LinkLatency > 0 {
		p = min(p, f.cfg.LinkLatency)
	}
	return max(p, 50*time.Microsecond)
}

func (f *Fabric) pump() {
	defer f.wg.Done()
	tk := time.NewTicker(f.pumpPeriod())
	defer tk.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tk.C:
			f.runDue(f.now())
		}
	}
}

// Close routes subsequent Enqueues directly to the delivery sink, stops the
// pump, and runs the event loop until nothing is in custody: every outbox
// flushes and every batch lands, however far off its arrival or retry was.
func (f *Fabric) Close() {
	if f.closed.Swap(true) {
		return
	}
	if f.stop != nil {
		close(f.stop)
		f.wg.Wait()
	}
	// An Enqueue that read closed as false holds its link's lock until its
	// task is counted in custody; taking every lock once waits those out.
	for _, lk := range f.links {
		if lk != nil {
			lk.mu.Lock()
			lk.mu.Unlock()
		}
	}
	for f.Advance() {
	}
}

// Pending returns the number of tasks in fabric custody: buffered in an
// outbox or sealed in an undelivered batch.
func (f *Fabric) Pending() int64 { return f.pending.Load() }

// Each calls fn for every task in fabric custody. This is the in-transit
// half of the M_T taskpool snapshot: combined with Pool.Each, every live
// task is observable to the collector.
func (f *Fabric) Each(fn func(task.Task)) {
	for _, lk := range f.links {
		if lk == nil || !lk.busy.Load() {
			continue
		}
		lk.mu.Lock()
		for _, t := range lk.outbox {
			fn(t)
		}
		for _, b := range lk.unacked {
			if b.delivered {
				continue
			}
			for _, t := range b.tasks {
				fn(t)
			}
		}
		lk.mu.Unlock()
	}
}

// Expunge removes every in-custody task for which pred returns true —
// restructuring's deletion of irrelevant tasks extended to messages on the
// wire. Already-delivered batches are untouched (their tasks are in pools
// and get expunged there). An in-flight batch whose tasks are all expunged
// is dropped from the window, turning its arrival into a no-op.
func (f *Fabric) Expunge(pred func(task.Task) bool) int {
	removed := 0
	for _, lk := range f.links {
		if lk == nil || !lk.busy.Load() {
			continue
		}
		lk.mu.Lock()
		kept := lk.outbox[:0]
		for _, t := range lk.outbox {
			if pred(t) {
				removed++
				continue
			}
			kept = append(kept, t)
		}
		lk.outbox = kept
		for seq, b := range lk.unacked {
			if b.delivered {
				continue
			}
			bk := b.tasks[:0]
			for _, t := range b.tasks {
				if pred(t) {
					removed++
					continue
				}
				bk = append(bk, t)
			}
			b.tasks = bk
			if len(b.tasks) == 0 {
				delete(lk.unacked, seq)
			}
		}
		lk.syncBusyLocked()
		lk.mu.Unlock()
	}
	if removed > 0 {
		f.pending.Add(int64(-removed))
		f.cfg.Counters.FabricExpunged.Add(int64(removed))
	}
	return removed
}

// event logs one step of batch b's lifecycle on the link. The note is
// formatted only when a handle is attached.
func (lk *link) event(kind string, b *batch) {
	if o := lk.f.cfg.Obs; o != nil {
		o.Event(obs.TIDFabric, kind, uint64(lk.from), uint64(lk.to),
			fmt.Sprintf("seq=%d n=%d attempt=%d", b.seq, len(b.tasks), b.attempts))
	}
}
