package core

import (
	"fmt"

	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// CheckInvariants validates the three marking invariants of §5.4.1 for one
// context against the current graph and task pools. It must be called at a
// point where no task is mid-execution (deterministic mode, between steps).
//
// The invariants checked, in their operationally precise (weakened) form:
//
//	I1: transient(v) ⇒ every context-child of v is transient/marked or has
//	    a queued mark task addressed to it.
//	I2: marked(v) ⇒ the same (the paper states "never points to an
//	    unmarked vertex"; with priority re-marking and add-reference a
//	    pending mark task is the equivalent guarantee).
//	I3: mt-cnt(v) equals the number of unreturned marks spawned from v:
//	    queued marks with parent v, plus queued returns addressed to v,
//	    plus transient vertices whose mt-par is v.
//
// "Queued" covers a pool, the fabric, and a partition's list (EachPending).
//
// It returns a list of violations (empty when all invariants hold).
func CheckInvariants(store *graph.Store, marker *Marker, mach *sched.Machine, ctx graph.Ctx) []error {
	epoch := marker.Epoch(ctx)

	marksByPar := make(map[graph.VertexID]int)
	marksByDst := make(map[graph.VertexID]int)
	returnsByDst := make(map[graph.VertexID]int)
	count := func(t task.Task) {
		if t.Ctx != ctx || t.Epoch != epoch {
			return
		}
		switch t.Kind {
		case task.Mark:
			marksByPar[t.Src]++
			marksByDst[t.Dst]++
		case task.Return:
			returnsByDst[t.Dst]++
		}
	}
	for i := 0; i < mach.PEs(); i++ {
		mach.Pool(i).Each(count)
	}
	// A mark or return in transit through the fabric is still pending — it
	// must be accounted exactly like a queued one or I1/I3 would report
	// false violations whenever a message is on the wire.
	mach.EachInTransit(count)
	// So is one parked on a partition's list, waiting for the drain or the
	// continuation that will pop it.
	marker.EachPending(count)

	transientBy := make(map[graph.VertexID]int)
	store.ForEach(func(v *graph.Vertex) {
		v.Lock()
		defer v.Unlock()
		mc := v.CtxOf(ctx)
		if mc.StateAt(epoch) == graph.Transient {
			transientBy[mc.MtPar]++
		}
	})

	var violations []error
	store.ForEach(func(v *graph.Vertex) {
		v.Lock()
		defer v.Unlock()
		if v.Kind == graph.KindFree {
			return
		}
		mc := v.CtxOf(ctx)
		st := mc.StateAt(epoch)

		if st != graph.Unmarked {
			want := marksByPar[v.ID] + returnsByDst[v.ID] + transientBy[v.ID]
			if int(mc.MtCnt) != want {
				violations = append(violations, fmt.Errorf(
					"I3: v%d (%s) mt-cnt=%d, accounted=%d (marks=%d returns=%d transient-children=%d)",
					v.ID, st, mc.MtCnt, want, marksByPar[v.ID], returnsByDst[v.ID], transientBy[v.ID]))
			}
		}
		if mc.MtCnt < 0 {
			violations = append(violations, fmt.Errorf("I3: v%d negative mt-cnt %d", v.ID, mc.MtCnt))
		}

		if st == graph.Transient || st == graph.Marked {
			var children []graph.VertexID
			if ctx == graph.CtxR {
				children = v.Args()
			} else {
				children = v.TaskChildren(nil)
			}
			for _, cid := range children {
				c := store.Vertex(cid)
				if c == nil {
					continue
				}
				// Avoid self-deadlock on self-edges; the state read below
				// needs c's lock unless c == v.
				var cst graph.MarkState
				if c == v {
					cst = mc.StateAt(epoch)
				} else {
					c.Lock()
					cst = c.CtxOf(ctx).StateAt(epoch)
					c.Unlock()
				}
				if cst == graph.Unmarked && marksByDst[cid] == 0 {
					inv := "I1"
					if st == graph.Marked {
						inv = "I2"
					}
					violations = append(violations, fmt.Errorf(
						"%s: %s v%d has unmarked child v%d with no pending mark", inv, st, v.ID, cid))
				}
			}
		}
	})
	return violations
}

// CheckAllReachableMarked validates Lemma 2's conclusion for context R (and
// Lemma 4's for context T): after a completed cycle every vertex reachable
// from the given roots through the context's child relation is Marked. It
// returns the unmarked-but-reachable vertices.
func CheckAllReachableMarked(store *graph.Store, marker *Marker, ctx graph.Ctx, roots ...graph.VertexID) []graph.VertexID {
	epoch := marker.Epoch(ctx)
	seen := make(map[graph.VertexID]bool)
	var bad []graph.VertexID
	stack := append([]graph.VertexID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == graph.NilVertex || seen[id] {
			continue
		}
		seen[id] = true
		v := store.Vertex(id)
		if v == nil {
			continue
		}
		v.Lock()
		if v.CtxOf(ctx).StateAt(epoch) != graph.Marked {
			bad = append(bad, id)
		}
		var children []graph.VertexID
		if ctx == graph.CtxR {
			children = append(children, v.Args()...)
		} else {
			children = v.TaskChildren(nil)
		}
		v.Unlock()
		stack = append(stack, children...)
	}
	return bad
}
