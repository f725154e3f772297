package core

import "dgr/internal/graph"

// coopAttachLocked is the generalized attach cooperation used by the
// reduction engine's rewrites, where the new child c may be a deep
// descendant of parent (reached through an indirection chain or a partial
// application spine) rather than an adjacent grandchild. Both vertices are
// locked by the caller. The rule preserves the marking invariants for any
// attach:
//
//   - parent transient: spawn a mark on c counted against parent's mt-cnt
//     (exactly Figure 4-2's first case);
//   - parent marked: there is no transient vertex to count the mark
//     against, so register c as an extra root of the running cycle (the
//     marker's pendingRoots generalization of rootpar);
//   - parent unmarked: the eventual mark of parent traces the new edge.
//
// Cooperation only ever fires from transient/marked parents, which by M_R
// safety (Lemma 1) are never garbage — so garbage identification is not
// weakened by the conservative over-marking.
func (mu *Mutator) coopAttachLocked(parent, c *graph.Vertex, rk graph.ReqKind) {
	if mu.noCoop || parent == c {
		return
	}
	for _, ctx := range []graph.Ctx{graph.CtxR, graph.CtxT} {
		if !mu.marker.Active(ctx) {
			continue
		}
		epoch := mu.marker.Epoch(ctx)
		pc := parent.CtxOf(ctx)
		if c.CtxOf(ctx).StateAt(epoch) != graph.Unmarked {
			continue
		}
		prior := min(pc.Prior, rk.Priority())
		switch pc.StateAt(epoch) {
		case graph.Transient:
			mu.marker.spawnMark(nil, ctx, parent.ID, c.ID, prior, epoch)
			pc.MtCnt++
			mu.coopCount()
		case graph.Marked:
			if mu.marker.AddRootDuringCycle(ctx, c.ID, prior) {
				mu.coopCount()
			}
		}
	}
}

// CollapseToInd rewrites v into an indirection to c, where c is an existing
// vertex currently reachable from v (e.g. through a partial-application
// spine or indirection chain) — the normal-order "result forwarding"
// rewrite used by K-reduction, if-selection and head/tail extraction. The
// new reference v→c is covered by the generalized attach cooperation.
func (mu *Mutator) CollapseToInd(v, c *graph.Vertex) {
	var ls lockSet
	defer lockVertices(&ls, v, c).unlock()
	mu.coopAttachLocked(v, c, graph.ReqNone)
	v.Kind = graph.KindInd
	v.Val = 0
	v.SetArgs(c.ID)
}

// CollapseToIndDirect rewrites v into an indirection to its existing direct
// child c. No new reference is created (the edge v→c already exists), so no
// marking cooperation is required — only deletions of v's other edges.
func (mu *Mutator) CollapseToIndDirect(v, c *graph.Vertex) {
	var ls lockSet
	defer lockVertices(&ls, v, c).unlock()
	v.Kind = graph.KindInd
	v.Val = 0
	v.SetArgs(c.ID)
}

// MakeSelfKnot gives v a vital self-dependency (v ∈ req-args_v(v) and
// v ∈ requested(v)) — the x = x+1 shape of Figure 3-1, used by the ⊥
// primitive. A self-edge needs no cooperation: a transient/marked v is
// itself already traced.
func (mu *Mutator) MakeSelfKnot(v *graph.Vertex) {
	var ls lockSet
	defer lockVertices(&ls, v).unlock()
	if !v.HasArg(v.ID) {
		v.AddArg(v.ID, graph.ReqVital)
		v.AddRequester(v.ID, graph.ReqVital)
	}
}

// Rewrite atomically rewires v's label and children through fn, with fresh
// vertices spliced in (ExpandNode semantics) and generalized attach
// cooperation applied to every child of v and of the fresh vertices after
// the splice. existing is the set of pre-existing vertices fn will
// reference; they are locked together with v and the fresh vertices.
//
// This is the engine-facing composition of the Figure 4-2 primitives for a
// combinator contraction: expand-node for the fresh subgraph plus
// add-reference cooperation for every deep operand that becomes newly
// referenced.
func (mu *Mutator) Rewrite(v *graph.Vertex, fresh, existing []*graph.Vertex, fn func()) {
	var ls lockSet
	defer lockSpliceSet(&ls, v, fresh, existing).unlock()

	for _, g := range fresh {
		g.Red.AllocEpoch = mu.marker.Epoch(graph.CtxR)
		g.Red.AllocEpochT = mu.marker.Epoch(graph.CtxT)
	}

	// expand-node's "if marked(a) then mark(g)".
	for _, ctx := range []graph.Ctx{graph.CtxR, graph.CtxT} {
		if mu.noCoop || !mu.marker.Active(ctx) {
			continue
		}
		epoch := mu.marker.Epoch(ctx)
		mc := v.CtxOf(ctx)
		if mc.StateAt(epoch) == graph.Marked {
			for _, g := range fresh {
				gc := g.CtxOf(ctx)
				gc.Epoch = epoch
				gc.MtCnt = 0
				gc.State = graph.Marked
				gc.MtPar = v.ID
				gc.Prior = mc.Prior
			}
			if len(fresh) > 0 {
				mu.coopCount()
			}
		}
	}

	fn()

	// Post-splice cooperation: every child edge of v and of the fresh
	// vertices is treated as an attach. Outside a marking cycle (and with
	// cooperation off) an attach needs nothing, so the pass is skipped. A
	// cycle that opens after this test cannot be missed: it starts at a new
	// epoch, at which v and the fresh vertices — locked here, or owned, so
	// no mark task has reached them — are unmarked, and an unmarked
	// parent's attach is a no-op.
	if mu.noCoop || !(mu.marker.Active(graph.CtxR) || mu.marker.Active(graph.CtxT)) {
		return
	}
	mu.coverChildrenLocked(v, v, fresh, existing)
	for _, g := range fresh {
		mu.coverChildrenLocked(g, v, fresh, existing)
	}
}

// coverChildrenLocked applies the attach cooperation to every child edge of
// p whose target is one of the splice's inputs (v, fresh, existing); any
// other child is not a vertex this rewrite newly references.
func (mu *Mutator) coverChildrenLocked(p, v *graph.Vertex, fresh, existing []*graph.Vertex) {
	for i, cid := range p.Args() {
		c := spliceInput(cid, v, fresh, existing)
		if c == nil || c == p {
			continue
		}
		mu.coopAttachLocked(p, c, p.ReqKindAt(i))
	}
}

// spliceInput returns the vertex with the given ID among v, fresh and
// existing, or nil.
func spliceInput(id graph.VertexID, v *graph.Vertex, fresh, existing []*graph.Vertex) *graph.Vertex {
	if v.ID == id {
		return v
	}
	for _, set := range [2][]*graph.Vertex{fresh, existing} {
		for _, x := range set {
			if x != nil && x.ID == id {
				return x
			}
		}
	}
	return nil
}
