package reduce

import (
	"fmt"
	"reflect"
	"testing"

	"dgr/internal/graph"
	"dgr/internal/task"
)

// TestTaskEffectIsPEIndependent checks that "local" is a fact about a task's
// vertices, not about the PE that runs it (DESIGN §8, "A local demand or
// result runs in place"): twin seeded rigs each queue the same root demand on
// its home partition, and one runs it there while the other moves it to
// another PE's pool, as a thief would, and runs it on that PE. With budget
// left, both executions must recognise the same partial application, hand
// off the same demands and results, rewrite the same graph and leave the same
// tasks queued.
func TestTaskEffectIsPEIndependent(t *testing.T) {
	run := func(pe int) (string, *graph.Snapshot) {
		r := newERig(t, 2, 1, false)
		// add (I 5) 3 on partition 0: stepping it finds (add (I 5)) an
		// unflagged partial application, I 5 is a vital demand, and the
		// Result from I 5 goes to a requester on the same partition.
		root := r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.App(r.b.Comb(graph.CombI), r.b.Int(5)), r.b.Int(3))
		if err := r.b.Err(); err != nil {
			t.Fatal(err)
		}
		ch := r.engine.Demand(root.ID)
		if pe != 0 && r.mach.Pool(0).StealInto(r.mach.Pool(pe), 1, nil) != 1 {
			t.Fatal("the root demand was not queued on its home PE")
		}
		var queued task.Task
		r.mach.Pool(pe).Each(func(q task.Task) { queued = q })
		if !r.mach.ExecuteMatching(pe, func(q task.Task) bool { return q == queued }, queued) {
			t.Fatalf("the root demand is not queued on PE %d", pe)
		}
		var value string
		select {
		case v := <-ch:
			value = v.String()
		default:
			value = "none"
		}
		var pools [2][]task.Task
		for i := range pools {
			r.mach.Pool(i).Each(func(q task.Task) { pools[i] = append(pools[i], q) })
		}
		c := r.counters.Snapshot()
		effect := fmt.Sprintf("value %s, steps in place %d, rewrites %d, allocations %d, spawns %d local %d remote, queued %v",
			value, c.InlineSteps, c.Rewrites, c.Allocations,
			c.LocalMessages, c.RemoteMessages, pools)
		if pe == 0 && value != "8" {
			t.Fatalf("at home: %s, want the value 8 from the one execution", effect)
		}
		return effect, r.store.Snapshot()
	}
	home, homeGraph := run(0)
	away, awayGraph := run(1)
	if home != away {
		t.Fatalf("the root demand's execution depends on its PE:\non PE 0 (home): %s\non PE 1:        %s", home, away)
	}
	if !reflect.DeepEqual(homeGraph, awayGraph) {
		t.Fatal("the root demand's execution rewrote the graph differently on PE 1 than on its home PE")
	}
}
