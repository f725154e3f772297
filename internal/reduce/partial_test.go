package reduce

import (
	"sync"
	"testing"
	"time"

	"dgr/internal/check"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// demandCounter counts the demands a machine executes, by destination. At
// inline budget 0 every task is popped and passes through it.
type demandCounter struct {
	inner sched.Handler
	dst   map[graph.VertexID]int
}

func (d *demandCounter) Handle(pe int, t task.Task) {
	if t.Kind == task.Demand {
		d.dst[t.Dst]++
	}
	d.inner.Handle(pe, t)
}

// countDemands makes r's engine spawn every step and demand as a task, and
// counts the demands it executes.
func countDemands(r *erig) *demandCounter {
	r.engine.SetInlineBudget(0)
	d := &demandCounter{inner: core.NewDispatcher(r.marker, r.engine), dst: map[graph.VertexID]int{}}
	r.mach.SetHandler(d)
	return d
}

// partialDemands counts the executed demands whose destination ended as a
// flagged application: a partial application.
func partialDemands(r *erig, d *demandCounter) int {
	n := 0
	for id, c := range d.dst {
		v := r.store.Vertex(id)
		v.Lock()
		if v.Kind == graph.KindApply && v.WHNF {
			n += c
		}
		v.Unlock()
	}
	return n
}

// sKK builds S K K, a partial application (S takes three operands) whose two
// applications nobody has flagged WHNF, on partition part.
func sKK(r *erig, part int) *graph.Vertex {
	b := graph.NewBuilder(r.store, part)
	return b.AppN(b.Comb(graph.CombS), b.Comb(graph.CombK), b.Comb(graph.CombK))
}

// TestLocalPartialApplicationIsNotDemanded checks the rule of DESIGN §8, "A
// partial application is a value": ((S K) K) x reduces with no demand for a
// function position, since each is a local application whose spine is
// under-saturated, while a foreign one and one being evaluated are demanded.
func TestLocalPartialApplicationIsNotDemanded(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		r := newERig(t, 2, 1, false)
		d := countDemands(r)
		f := sKK(r, 0)
		root := r.b.App(f, r.b.Int(5))
		r.evalInt(root, 5)
		n := partialDemands(r, d)
		if d.dst[f.ID] != 0 || n != 0 {
			t.Fatalf("%d demands for f, %d for partial applications in all, want 0", d.dst[f.ID], n)
		}
		if !flagged(f) {
			t.Fatal("f is not flagged WHNF")
		}
		t.Logf("census: demands for a local partial application = %d", n)
	})
	t.Run("foreign", func(t *testing.T) {
		r := newERig(t, 2, 1, false)
		d := countDemands(r)
		f := sKK(r, 1)
		root := r.b.App(f, r.b.Int(5))
		r.evalInt(root, 5)
		if d.dst[f.ID] != 1 {
			t.Fatalf("%d demands for f on the other partition, want 1", d.dst[f.ID])
		}
	})
	t.Run("evaluating", func(t *testing.T) {
		r := newERig(t, 2, 1, false)
		d := countDemands(r)
		f := sKK(r, 0)
		root := r.b.App(f, r.b.Int(5))
		other := r.b.App(f, r.b.Int(7))
		fired := false
		r.engine.afterResolve = func(v *graph.Vertex) {
			if fired || v != f {
				return
			}
			fired = true
			// Another PE starts evaluating f on behalf of other, between the
			// root's step finding f and its looking at f's flags.
			x := &execution{Engine: r.engine, pe: 1, part: r.store.PartitionOf(f.ID)}
			if !x.handleDemand(task.Task{Kind: task.Demand, Src: other.ID, Dst: f.ID, Req: graph.ReqVital}) {
				t.Fatal("the interleaved demand did not start evaluating f")
			}
			x.spawn(task.Task{Kind: task.Reduce, Dst: f.ID})
		}
		r.evalInt(root, 5)
		if !fired {
			t.Fatal("resolveWHNF never returned f: the interleaving was not played")
		}
		if d.dst[f.ID] != 1 {
			t.Fatalf("%d demands for f while it was being evaluated, want 1", d.dst[f.ID])
		}
	})
}

func flagged(v *graph.Vertex) bool {
	v.Lock()
	defer v.Unlock()
	return v.WHNF
}

// TestSharedPartialApplicationRace has several PEs of a parallel machine,
// stealing, reach shared partial applications nobody has flagged at once:
// some recognise one in place, some demand it from another partition, and
// some find it being evaluated. The sum must be right, the invariant checker
// clean, and no Result may reach a vertex more often than it demanded its
// sender's value: a partial application is completed once, by whichever of
// the in-place flag and a demand's evaluation comes first.
func TestSharedPartialApplicationRace(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 6
	}
	for seed := int64(1); seed <= int64(rounds); seed++ {
		sharedPartialRound(t, seed)
	}
}

func sharedPartialRound(t *testing.T, seed int64) {
	const pes, groups, parents = 4, 24, 4
	store := graph.NewStore(graph.Config{Partitions: pes})
	counters := &metrics.Counters{}
	var checker *check.Checker
	var mu sync.Mutex
	demands := map[[2]graph.VertexID]int{} // {requester, destination}
	results := map[[2]graph.VertexID]int{} // {destination, sender}
	mach := sched.New(sched.Config{
		PEs: pes, Mode: sched.Parallel, Seed: seed, Steal: true,
		PartOf: store.PartitionOf, Counters: counters,
		AfterExecute: func(seq uint64, pe int, t task.Task) {
			checker.AfterExecute(seq, pe, t)
			mu.Lock()
			switch t.Kind {
			case task.Demand:
				demands[[2]graph.VertexID{t.Src, t.Dst}]++
			case task.Result:
				results[[2]graph.VertexID{t.Dst, t.Src}]++
			}
			mu.Unlock()
		},
	})
	marker := core.NewMarker(store, mach)
	checker = &check.Checker{Marker: marker, Every: 1}
	mut := core.NewMutator(marker)
	eng := New(mut, Config{})
	eng.SetInlineBudget(0) // every task passes AfterExecute
	mach.SetHandler(core.NewDispatcher(marker, eng))
	coll := core.NewCollector(marker, core.CollectorConfig{
		MTEvery: 1, AfterCycle: checker.AtCycleEnd, AfterPhase: checker.AtPhaseEnd,
	})
	checker.Coll = coll

	// Each group's S K K lies on one partition and is the function of one
	// parent on every partition; the root adds all the parents up.
	var terms, fs []*graph.Vertex
	want := int64(0)
	for g := 0; g < groups; g++ {
		b := graph.NewBuilder(store, g%pes)
		f := b.AppN(b.Comb(graph.CombS), b.Comb(graph.CombK), b.Comb(graph.CombK))
		fs = append(fs, f)
		for p := 0; p < parents; p++ {
			pb := graph.NewBuilder(store, p)
			n := int64(g*parents + p)
			terms = append(terms, pb.App(f, pb.Int(n)))
			want += n
		}
	}
	b := graph.NewBuilder(store, 0)
	for len(terms) > 1 {
		var next []*graph.Vertex
		for i := 0; i+1 < len(terms); i += 2 {
			next = append(next, b.PrimApp(graph.PrimAdd, terms[i], terms[i+1]))
		}
		if len(terms)%2 == 1 {
			next = append(next, terms[len(terms)-1])
		}
		terms = next
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	coll.SetRoot(terms[0].ID)
	mach.Start()
	coll.Start(40)
	ch := eng.Demand(terms[0].ID)
	var got Value
	select {
	case got = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("seed %d: no value in 30 s", seed)
	}
	mach.WaitQuiescent()
	coll.Stop()
	mach.Stop()

	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("seed %d: runtime errors: %v", seed, errs)
	}
	if got.Kind != graph.KindInt || got.Int != want {
		t.Fatalf("seed %d: value = %v, want %d", seed, got, want)
	}
	checker.AtQuiescence()
	if err := checker.Err(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seed == 1 {
		n := 0
		for pair, d := range demands {
			for _, f := range fs {
				if pair[1] == f.ID {
					n += d
				}
			}
		}
		t.Logf("seed 1: %d demands reached the %d shared S K K from their %d parents", n, groups, groups*parents)
	}
	for pair, n := range results {
		if d := demands[pair]; n > d {
			t.Fatalf("seed %d: v%d received %d results from v%d and demanded its value %d times",
				seed, pair[0], n, pair[1], d)
		}
	}
}
