package task

import (
	"math/rand"
	"sync/atomic"
	"time"

	"dgr/internal/graph"
	"dgr/internal/lock"
)

// Pool is the per-PE taskpool(i) of §5.2: all unexecuted tasks whose
// destination resides on that PE. A pool from NewPool is safe for concurrent
// use. A pool from NewSerialPool takes no lock: it belongs to a seeded
// machine, whose one goroutine runs one task at a time and fences every
// other reader with its owner lock, and it never blocks (PopWaitFor is for
// a parallel PE, the pool's one blocking consumer), so it has no wake
// channel either. Tasks are held in priority bands (marking > vital > eager
// > reserve) with FIFO order within a band; each band is a growable ring
// buffer, so the steady-state push/pop cycle of a busy PE allocates nothing.
type Pool struct {
	mu lock.Mutex
	// closed makes the pool hand out nothing and wakes its waiter. It and
	// waiting follow mu so that they fill the padding after mu's mode bit:
	// the bit costs the pool no space.
	closed bool
	// waiting is set while the pool's consumer is blocked in PopWaitFor; a
	// push wakes it only then. A pool has one blocking consumer, its own PE.
	waiting bool
	// wakeC carries a push's wake to the blocked consumer; one pending wake
	// is enough. Nil on a serial pool.
	wakeC chan struct{}
	bands [numBands]ring
	// n is the number of queued tasks. It changes only under mu, next to
	// the ring operation it counts, and is atomic so that Len — which the
	// deterministic scheduler calls on every pool every step — reads it
	// without the lock.
	n atomic.Int64
	// onTake, when set, observes every task consumed for execution — TryPop,
	// TryPopRandom and PopWaitFor — while the pool lock is still held.
	// Because Each holds the same lock, an observer that reads both sees
	// every task in one of two views: still queued (Each) or taken (onTake
	// fired first). The scheduler uses it to publish the task as the owning
	// PE's in-execution task and to note it against an armed deadlock-verdict
	// watch before the pool lock is released: published any later, a task is
	// invisible to both the queued-task snapshot and the current-task view
	// for a while — a window a taskpool snapshot (M_T's troot) could land in.
	// It does not fire for StealInto's moves (the task stays in pool custody;
	// the thief observes them through StealInto's each) nor for the
	// replayer's TryPopWhere, whose caller publishes the recorded task itself.
	onTake func(Task)
	// seq is a process-global creation number; StealInto acquires the two
	// pool locks in seq order so concurrent steals in opposite directions
	// cannot deadlock.
	seq uint64
}

// poolSeq numbers pools at creation for StealInto's lock ordering.
var poolSeq atomic.Uint64

// NewPool returns an empty pool that is safe for concurrent use.
func NewPool() *Pool {
	p := newPool(false)
	p.wakeC = make(chan struct{}, 1)
	return p
}

// NewSerialPool returns an empty pool for a seeded machine, which takes no
// lock and has no wake channel (see Pool).
func NewSerialPool() *Pool { return newPool(true) }

func newPool(serial bool) *Pool {
	p := &Pool{seq: poolSeq.Add(1)}
	p.mu.SetSerial(serial)
	return p
}

// Serial reports whether the pool came from NewSerialPool.
func (p *Pool) Serial() bool { return p.mu.Serial() }

// SetOnTake installs (or, with nil, clears) the consumption observer. The
// hook runs under the pool lock for every task popped for execution (but
// not for tasks moved by StealInto or taken by TryPopWhere) and must not
// call back into the pool.
func (p *Pool) SetOnTake(fn func(Task)) {
	p.mu.Lock()
	p.onTake = fn
	p.mu.Unlock()
}

// wake wakes the pool's consumer if it is blocked; it takes what was
// queued, or waits again.
func (p *Pool) wake(waiting bool) {
	if waiting {
		select {
		case p.wakeC <- struct{}{}:
		default: // a wake is pending already
		}
	}
}

// Push enqueues a task, computing its band.
func (p *Pool) Push(t Task) {
	t.Band = t.ComputeBand()
	p.mu.Lock()
	p.bands[t.Band].push(t)
	p.n.Add(1)
	waiting := p.waiting
	p.mu.Unlock()
	p.wake(waiting)
}

// PushBatch enqueues a batch of tasks under one lock acquisition — the
// amortization the inter-PE fabric's coalescing buys: a link delivers a
// whole batch into the destination pool at the cost of a single message.
func (p *Pool) PushBatch(ts []Task) {
	if len(ts) == 0 {
		return
	}
	p.mu.Lock()
	for _, t := range ts {
		t.Band = t.ComputeBand()
		p.bands[t.Band].push(t)
	}
	p.n.Add(int64(len(ts)))
	waiting := p.waiting
	p.mu.Unlock()
	p.wake(waiting)
}

// Len returns the number of queued tasks.
func (p *Pool) Len() int { return int(p.n.Load()) }

// BandLens returns the queued-task count per priority band, lowest band
// first. One lock acquisition (none on a serial pool, whose caller must be,
// or hold off, the owner); read by the exposition and the marker.
func (p *Pool) BandLens() [NumBands]int {
	var out [NumBands]int
	p.mu.Lock()
	for b := range p.bands {
		out[b] = p.bands[b].len()
	}
	p.mu.Unlock()
	return out
}

// TryPop removes and returns the highest-band task, FIFO within a band. A
// closed pool hands out nothing.
func (p *Pool) TryPop() (Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.popLocked()
}

func (p *Pool) popLocked() (Task, bool) {
	if p.closed || p.n.Load() == 0 {
		return Task{}, false
	}
	for b := int(numBands) - 1; b >= 0; b-- {
		if p.bands[b].len() > 0 {
			p.n.Add(-1)
			t := p.bands[b].popFront()
			if p.onTake != nil {
				p.onTake(t)
			}
			return t, true
		}
	}
	return Task{}, false
}

// TryPopWhere removes and returns the first queued task (scanning bands
// high to low, FIFO within a band) for which pred returns true. It is the
// schedule replayer's selection primitive: a recorded log, not the
// scheduler's policy, decides which task runs next.
func (p *Pool) TryPopWhere(pred func(Task) bool) (Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for b := int(numBands) - 1; b >= 0; b-- {
		r := &p.bands[b]
		for i := 0; i < r.len(); i++ {
			if pred(*r.at(i)) {
				p.n.Add(-1)
				return r.removeAt(i), true
			}
		}
	}
	return Task{}, false
}

// TryPopRandom removes a uniformly random queued task (adversarial
// scheduling for interleaving tests). rng must not be shared across
// goroutines.
func (p *Pool) TryPopRandom(rng *rand.Rand) (Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := int(p.n.Load())
	if n == 0 {
		return Task{}, false
	}
	k := rng.Intn(n)
	for b := range p.bands {
		if k < p.bands[b].len() {
			p.n.Add(-1)
			t := p.bands[b].removeAt(k)
			if p.onTake != nil {
				p.onTake(t)
			}
			return t, true
		}
		k -= p.bands[b].len()
	}
	return Task{}, false // unreachable
}

// PopWaitFor blocks until a task is available, the pool is closed, or d
// elapses. closed is true only after Close; a (zero, false, false) return
// means the wait timed out. A PE parks on its own pool with it: briefly, so
// that a stealing PE goes back to scanning peers on timeout — an untimed
// park would strand an idle PE while a neighbor's queue grows with
// partition-local work it could have stolen. One goroutine at a time may
// wait on a pool, and none on a serial pool, which nothing could refill
// while its one goroutine waits: PopWaitFor panics there. The wait starts no
// goroutine: its timer sends on a channel, where an AfterFunc would run its
// function on a goroutine of its own at every expiry, hundreds a second on
// an idle PE.
func (p *Pool) PopWaitFor(d time.Duration) (t Task, ok bool, closed bool) {
	if p.wakeC == nil {
		panic("task: PopWaitFor on a serial pool")
	}
	var tm *time.Timer
	for expired := false; ; {
		p.mu.Lock()
		t, ok = p.popLocked()
		closed = p.closed
		p.waiting = !ok && !closed && !expired
		wait := p.waiting
		p.mu.Unlock()
		if !wait {
			return t, ok, closed
		}
		if tm == nil {
			tm = time.NewTimer(d)
			defer tm.Stop()
		}
		select {
		case <-p.wakeC:
		case <-tm.C:
			expired = true
		}
	}
}

// StealInto moves up to max tasks from the tails of p's band rings into the
// same bands of dst, highest band first, and returns how many moved. Both
// pool locks are held for the transfer — acquired in pool-creation order so
// opposite-direction steals cannot deadlock — which keeps every task in
// pool custody throughout: an M_T taskpool snapshot (Each takes the same
// locks) sees each task in exactly one of the two pools. each, when non-nil,
// observes every moved task under the same locks: the scheduler notes it
// against an armed deadlock-verdict watch there, so a steal counts as
// reduction activity exactly like a pop, and records lineage steal spans.
//
// Tails, not heads: the victim keeps the oldest work in each band (what it
// will pop next), and the stolen tasks retain their relative FIFO order at
// the thief's tail.
func (p *Pool) StealInto(dst *Pool, max int, each func(Task)) int {
	if p == dst || max <= 0 {
		return 0
	}
	first, second := p, dst
	if dst.seq < p.seq {
		first, second = dst, p
	}
	first.mu.Lock()
	second.mu.Lock()
	defer first.mu.Unlock()
	defer second.mu.Unlock()

	moved := 0
	for b := int(numBands) - 1; b >= 0 && moved < max; b-- {
		r := &p.bands[b]
		cnt := r.len()
		if cnt > max-moved {
			cnt = max - moved
		}
		if cnt == 0 {
			continue
		}
		// Copy the tail segment in FIFO order, then truncate the victim band.
		start := r.len() - cnt
		for i := 0; i < cnt; i++ {
			t := *r.at(start + i)
			if each != nil {
				each(t)
			}
			dst.bands[b].push(t)
		}
		r.n -= int32(cnt)
		moved += cnt
	}
	if moved > 0 {
		p.n.Add(int64(-moved))
		dst.n.Add(int64(moved))
		dst.wake(dst.waiting)
	}
	return moved
}

// EachAcross calls fn for every task queued in any of the pools while
// holding EVERY pool lock simultaneously, acquired in the order of pools,
// which must be pool-creation (seq) order — the same global order StealInto
// uses, so the two can never deadlock. A machine creates its pools in that
// order and keeps them so; EachAcross panics on a slice that is not. This is
// the atomic whole-machine snapshot M_T's troot needs once work stealing is
// on: a pool-by-pool scan can be raced by a steal that moves a batch from a
// not-yet-scanned pool into an already-scanned one, hiding queued tasks from
// the snapshot entirely. Because StealInto holds both pool locks for the
// transfer, a scan that holds all locks sees every task in pool custody
// exactly once. fn must not call back into any of the pools.
func EachAcross(pools []*Pool, fn func(Task)) {
	for i := 1; i < len(pools); i++ {
		if pools[i-1].seq >= pools[i].seq {
			panic("task: EachAcross needs pools in creation order")
		}
	}
	for _, p := range pools {
		p.mu.Lock()
	}
	defer func() {
		for i := len(pools) - 1; i >= 0; i-- {
			pools[i].mu.Unlock()
		}
	}()
	for _, p := range pools {
		for b := range p.bands {
			r := &p.bands[b]
			for i := 0; i < r.len(); i++ {
				fn(*r.at(i))
			}
		}
	}
}

// Close makes the pool hand out nothing — no pop takes a task, PopWaitFor
// returns closed at once — and wakes its waiter. Pushes still queue, and
// Expunge still removes: the owner of a closed pool abandons what it holds.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	waiting := p.waiting
	p.mu.Unlock()
	p.wake(waiting)
}

// Each calls fn for every queued task under the pool lock. fn must not call
// back into the pool. This is the taskpool snapshot M_T uses to build
// taskroot_i. When an inter-PE fabric is wired in, a spawned task may also
// be in transit between pools, so M_T combines this with the fabric's own
// Each to keep every live task observable.
func (p *Pool) Each(fn func(Task)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for b := range p.bands {
		r := &p.bands[b]
		for i := 0; i < r.len(); i++ {
			fn(*r.at(i))
		}
	}
}

// Expunge removes every task for which pred returns true and reports how
// many were removed. This implements the restructuring phase's deletion of
// irrelevant tasks.
func (p *Pool) Expunge(pred func(Task) bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := 0
	for b := range p.bands {
		removed += p.bands[b].filter(func(t *Task) bool { return !pred(*t) })
	}
	p.n.Add(int64(-removed))
	return removed
}

// Reprioritize recomputes each queued task's request kind via fn (given the
// task, returns the new request kind) and moves tasks between bands
// accordingly. It implements §3.2's dynamic prioritization: after a marking
// cycle, a task's priority is re-derived from the priority its destination
// was marked with. It returns the number of tasks whose band changed.
func (p *Pool) Reprioritize(fn func(Task) graph.ReqKind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	changed := 0
	// A moved task goes straight onto its new band's tail, and each band's
	// filter sees only the tasks it held when the call began, so fn sees
	// every task once and each band ends its kept tasks, then its arrivals
	// in the order they left theirs.
	var held [NumBands]int
	for b := range p.bands {
		held[b] = p.bands[b].len()
	}
	for b := range p.bands {
		p.bands[b].filterFirst(held[b], func(t *Task) bool {
			if t.Kind != Demand {
				return true
			}
			nk := fn(*t)
			if nk == t.Req {
				return true
			}
			t.Req = nk
			nb := t.ComputeBand()
			if nb == t.Band {
				return true
			}
			t.Band = nb
			p.bands[nb].push(*t)
			changed++
			return false
		})
	}
	return changed
}
