package core

import (
	"testing"
	"time"

	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
)

// rig bundles a store, machine, marker and mutator for marking tests.
type rig struct {
	t        testing.TB
	store    *graph.Store
	mach     *sched.Machine
	marker   *Marker
	mut      *Mutator
	counters *metrics.Counters
}

// newRig builds a deterministic test rig.
func newRig(t testing.TB, pes int, seed int64, adversarial bool) *rig {
	return newRigIn(t, sched.Deterministic, pes, seed, adversarial)
}

// newRigIn builds a test rig on a machine of the given mode. A parallel
// rig's PEs are the test's to Start and Stop, and steal from each other as a
// parallel dgr machine's do.
func newRigIn(t testing.TB, mode sched.Mode, pes int, seed int64, adversarial bool) *rig {
	return newRigOn(t, graph.Config{Partitions: pes}, mode, seed, adversarial)
}

// newRigSerial builds a one-PE deterministic test rig whose store, if serial
// is set, is serial as dgr.New builds a seeded machine's: its vertices take
// no lock.
func newRigSerial(t testing.TB, seed int64, serial bool) *rig {
	return newRigOn(t, graph.Config{Partitions: 1, Serial: serial}, sched.Deterministic, seed, false)
}

// newRigOn builds a test rig of cfg.Partitions PEs on a store built from cfg.
func newRigOn(t testing.TB, cfg graph.Config, mode sched.Mode, seed int64, adversarial bool) *rig {
	t.Helper()
	pes := cfg.Partitions
	store := graph.NewStore(cfg)
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs:         pes,
		Mode:        mode,
		Seed:        seed,
		Adversarial: adversarial,
		Steal:       mode == sched.Parallel,
		PartOf:      store.PartitionOf,
		Counters:    counters,
	})
	marker := NewMarker(store, mach)
	mach.SetHandler(NewDispatcher(marker, nil))
	mut := NewMutator(marker)
	return &rig{t: t, store: store, mach: mach, marker: marker, mut: mut, counters: counters}
}

// testBudgets are the wave budgets the property tests sweep: the
// paper-literal schedule (one task per arc), two that make every wave spill
// mid-way, and the one that ships.
var testBudgets = []int{0, 1, 3, waveBudget}

// atEachBudget runs a property test's body once per budget. A failure is at
// the last budget logged.
func atEachBudget(t *testing.T, body func(t *testing.T, budget int)) {
	for _, budget := range testBudgets {
		t.Logf("wave budget %d", budget)
		body(t, budget)
	}
}

// taskPerArc sets the wave budget to 0, so that every mark and every return
// is a task of its own — the schedule of Figures 4-1 to 5-3 read literally —
// and a test can act between any two of them.
func (r *rig) taskPerArc() *rig {
	r.marker.budget = 0
	return r
}

// vertex allocates a vertex of the given kind.
func (r *rig) vertex(kind graph.Kind) *graph.Vertex {
	r.t.Helper()
	v, err := r.store.Alloc(0, kind, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// edge wires parent→child with the given request kind (setup only: no
// marking cooperation).
func (r *rig) edge(parent, child *graph.Vertex, rk graph.ReqKind) {
	parent.Lock()
	parent.AddArg(child.ID, rk)
	parent.Unlock()
}

// request registers child ∈ requested(parent)... i.e. records that src
// requested dst's value (setup only).
func (r *rig) request(src, dst *graph.Vertex, rk graph.ReqKind) {
	dst.Lock()
	dst.AddRequester(src.ID, rk)
	dst.Unlock()
}

// registerRequest records that x requested y's value with kind rk through
// the two cooperating primitives, in the engine's order: the requester's
// edge first (SetRequestKind, as request and speculate do), then the
// destination's requested set (AddRequesterCoop, as handleDemand does). It
// returns false, changing nothing, if the edge x→y does not exist.
func (r *rig) registerRequest(x, y *graph.Vertex, rk graph.ReqKind) bool {
	if !r.mut.SetRequestKind(x, y, rk) {
		return false
	}
	r.mut.AddRequesterCoop(y, x, rk)
	return true
}

// runCycle starts a marking cycle for ctx from the given roots and pumps
// the deterministic machine until it completes — or, on a parallel rig, waits
// for its running PEs to complete it — failing the test if it does not
// terminate within a generous bound.
func (r *rig) runCycle(ctx graph.Ctx, roots ...Root) {
	r.t.Helper()
	done := r.marker.StartCycle(ctx, roots)
	if r.mach.Mode() == sched.Parallel {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
	} else {
		r.mach.RunUntil(func() bool { return r.marker.Done(ctx) }, 1_000_000)
	}
	if !r.marker.Done(ctx) {
		r.t.Fatalf("marking ctx %v did not terminate", ctx)
	}
	if n := r.marker.UnderflowCount(ctx); n != 0 {
		r.t.Fatalf("mt-cnt underflows: %d", n)
	}
}

// stateOf returns the vertex's marking state in ctx at the current epoch.
func (r *rig) stateOf(v *graph.Vertex, ctx graph.Ctx) graph.MarkState {
	v.Lock()
	defer v.Unlock()
	return v.CtxOf(ctx).StateAt(r.marker.Epoch(ctx))
}

// priorOf returns the vertex's marked priority in ctx R.
func (r *rig) priorOf(v *graph.Vertex) uint8 {
	v.Lock()
	defer v.Unlock()
	return v.RCtx.PriorAt(r.marker.Epoch(graph.CtxR))
}

// assertMarked fails unless every vertex is Marked in ctx.
func (r *rig) assertMarked(ctx graph.Ctx, vs ...*graph.Vertex) {
	r.t.Helper()
	for _, v := range vs {
		if st := r.stateOf(v, ctx); st != graph.Marked {
			r.t.Errorf("v%d state = %v, want marked", v.ID, st)
		}
	}
}

// assertUnmarked fails unless every vertex is Unmarked in ctx.
func (r *rig) assertUnmarked(ctx graph.Ctx, vs ...*graph.Vertex) {
	r.t.Helper()
	for _, v := range vs {
		if st := r.stateOf(v, ctx); st != graph.Unmarked {
			r.t.Errorf("v%d state = %v, want unmarked", v.ID, st)
		}
	}
}

// assertNoViolations runs the invariant checker and fails on any violation.
func (r *rig) assertNoViolations(ctx graph.Ctx) {
	r.t.Helper()
	for _, err := range CheckInvariants(r.store, r.marker, r.mach, ctx) {
		r.t.Errorf("invariant violation: %v", err)
	}
}
