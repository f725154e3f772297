package obs

// Readers over the log's trace class: assembling the spans of one sampled
// request — admission, eval, execution, and the steals and fabric hops that
// delayed an execution — back into its spawn DAG, and computing the critical
// path with per-category blame (exec / queue-wait / steal / fabric /
// gc-overlap).

import (
	"maps"
	"slices"
	"sort"
)

// --- Assembly: spans back into per-trace spawn DAGs -----------------------

// TraceNode is one span with its causal children, Start-ordered, and then
// the annotations of what delayed it.
type TraceNode struct {
	TraceSpan
	Children []*TraceNode
}

// TraceAssembly is one reconstructed trace: the spawn DAG (as a forest —
// normally a single root, the serving layer's request span or a machine's
// eval span) plus flat access to every span.
type TraceAssembly struct {
	ID      uint64
	Start   int64
	End     int64
	Roots   []*TraceNode
	Spans   []TraceSpan
	Orphans int // spans whose recorded parent was evicted from the ring
}

// AssembleTraces groups spans by trace ID and rebuilds each trace's DAG. Of
// the global (Trace 0) records only the collector phases (CatGC) come back,
// separately, for overlap blame: the "cycle" record that encloses them would
// otherwise swallow the whole path. Spans whose parent is missing become
// extra roots and are counted as orphans.
//
// An exec span hangs off its spawner's, and its Queue is its Start minus the
// spawner's End (the eval's Start, for a root demand), clamped at 0. An
// annotation (a steal, a fabric hop or retry) names its task's spawner and
// Dst, and hangs off the execution it delayed: the spawner's first exec
// child on that Dst to start after it ends; finding none, it is an orphan.
func AssembleTraces(spans []TraceSpan) (traces []*TraceAssembly, globals []TraceSpan) {
	byTrace := map[uint64][]TraceSpan{}
	for _, sp := range spans {
		if sp.Trace == 0 {
			if sp.Cat == CatGC {
				globals = append(globals, sp)
			}
			continue
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].Start < globals[j].Start })
	for _, id := range slices.Sorted(maps.Keys(byTrace)) {
		ts := byTrace[id]
		sort.Slice(ts, func(i, j int) bool { return ts[i].Start < ts[j].Start })
		asm := &TraceAssembly{ID: id, Spans: ts, Start: ts[0].Start, End: ts[0].End}
		nodes := make(map[uint64]*TraceNode, len(ts))
		for i := range ts {
			nodes[ts[i].Span] = &TraceNode{TraceSpan: ts[i]}
			asm.Start, asm.End = min(asm.Start, ts[i].Start), max(asm.End, ts[i].End)
		}
		var notes []*TraceNode
		for i := range ts {
			n := nodes[ts[i].Span]
			if n.Cat == CatSteal || n.Cat == CatFabric {
				notes = append(notes, n)
				continue
			}
			p, ok := nodes[n.Parent]
			if !ok || n.Parent == n.Span {
				asm.root(n)
				continue
			}
			p.Children = append(p.Children, n)
			if n.Cat == CatExec {
				born := p.Start
				if p.Cat == CatExec {
					born = p.End
				}
				n.Queue = max(0, n.Start-born)
				ts[i].Queue = n.Queue
			}
		}
		for _, a := range notes {
			if d := delayed(nodes[a.Parent], a); d != nil {
				d.Children = append(d.Children, a)
			} else {
				asm.root(a)
			}
		}
		traces = append(traces, asm)
	}
	return traces, globals
}

// root makes n a root of the trace, an orphan unless it names no parent.
func (asm *TraceAssembly) root(n *TraceNode) {
	if n.Parent != 0 {
		asm.Orphans++
	}
	asm.Roots = append(asm.Roots, n)
}

// delayed returns the execution annotation a delayed among the children of
// its task's spawner p, nil if there is none.
func delayed(p, a *TraceNode) *TraceNode {
	if p == nil {
		return nil
	}
	for _, c := range p.Children {
		if c.Cat == CatExec && c.Dst == a.Dst && c.Start >= a.End {
			return c
		}
	}
	return nil
}

// --- Critical path + per-category blame -----------------------------------

// CritSegment is one contiguous slice of a trace's critical path, blamed to
// one category.
type CritSegment struct {
	Cat   string `json:"cat"`
	Name  string `json:"name"`
	Span  uint64 `json:"span"`
	PE    int    `json:"pe"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// CritReport is the critical-path analysis of one trace: the path segments
// (oldest first) and the per-category blame totals. The segments partition
// the root span's interval, so the blame categories sum to (within clock
// granularity) the measured trace latency.
type CritReport struct {
	Trace   uint64           `json:"trace"`
	Start   int64            `json:"start"`
	End     int64            `json:"end"`
	TotalNs int64            `json:"total_ns"`
	Blame   map[string]int64 `json:"blame_ns"`
	Path    []CritSegment    `json:"path"`
}

// CriticalPath walks tr's DAG backward from the end of its root span,
// repeatedly descending into the child whose completion gated the parent's
// (latest End not after the cursor), chaining across siblings the same way,
// and decomposing each task's pre-execution wait into fabric-hop, post-steal,
// and plain queue time using the span's Queue window and its annotation
// children. Exec time overlapping a global collector interval of a machine
// that ran one of the trace's eval spans is re-blamed to gc.
func CriticalPath(tr *TraceAssembly, globals []TraceSpan) CritReport {
	rep := CritReport{Trace: tr.ID, Start: tr.Start, End: tr.End,
		Blame: map[string]int64{}}
	if len(tr.Roots) == 0 {
		return rep
	}
	// Root: the widest root span (the request/eval envelope).
	root := tr.Roots[0]
	for _, r := range tr.Roots[1:] {
		if r.End-r.Start > root.End-root.Start {
			root = r
		}
	}
	rep.Start, rep.End = root.Start, root.End
	rep.TotalNs = root.End - root.Start
	// Spawned tasks outlive the span that spawned them, so the backward
	// walk keys on each subtree's completion time (max End over the node
	// and all descendants), not the node's own End.
	fin := map[*TraceNode]int64{}
	for _, r := range tr.Roots {
		finishOf(r, fin)
	}
	var segs []CritSegment
	chain(root, root.End, fin, &segs)
	// chain emits newest-first; reverse and fold gc overlap.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	segs = carveGC(segs, globals, evalMachs(tr))
	for _, sg := range segs {
		if d := sg.End - sg.Start; d > 0 {
			rep.Blame[sg.Cat] += d
		}
	}
	rep.Path = segs
	return rep
}

// blameCat maps a span's category to its blame bucket: machine evaluation
// envelopes count as exec work; serving-layer phase spans as serve overhead.
func blameCat(sp *TraceSpan) string {
	switch sp.Cat {
	case CatExec, CatEval:
		return CatExec
	case CatSteal, CatFabric, CatGC, CatQueue:
		return sp.Cat
	default:
		return CatServe
	}
}

// finishOf computes each subtree's completion time: the max End over the
// node and every descendant (a spawned task's exec span routinely ends
// after its parent's does).
func finishOf(node *TraceNode, fin map[*TraceNode]int64) int64 {
	f := node.End
	for _, c := range node.Children {
		if cf := finishOf(c, fin); cf > f {
			f = cf
		}
	}
	fin[node] = f
	return f
}

// chain appends (newest-first) the critical segments of node's subtree that
// cover (chainStart(node), cursor]. The walk is backward: the child whose
// subtree completed last (at or before the cursor) gated the parent, so
// charge the gap after it to the parent, recurse into it, and continue from
// where its own chain started.
func chain(node *TraceNode, cursor int64, fin map[*TraceNode]int64, segs *[]CritSegment) int64 {
	if f := fin[node]; cursor > f {
		cursor = f
	}
	// Children whose subtrees completed inside the causal window (after
	// this task started) are causal work; children that finished before
	// Start (fabric hops, steal points) are pre-execution annotations
	// handled by the wait pass below.
	for cursor > node.Start {
		var best *TraceNode
		var bestFin int64
		for _, c := range node.Children {
			cf := fin[c]
			if cf > cursor || cf <= node.Start {
				continue
			}
			if best == nil || cf > bestFin {
				best, bestFin = c, cf
			}
		}
		if best == nil {
			break
		}
		if cursor > bestFin {
			*segs = append(*segs, CritSegment{Cat: blameCat(&node.TraceSpan),
				Name: node.Name, Span: node.Span, PE: node.PE, Start: bestFin, End: cursor})
		}
		prev := cursor
		cursor = chain(best, bestFin, fin, segs)
		if cursor >= bestFin {
			cursor = best.Start
		}
		if cursor >= prev { // zero-width child at the cursor: force progress
			break
		}
	}
	if cursor > node.End {
		// Unattributed subtree time after this span's own end still
		// belongs to its category, keeping the segments a partition.
		*segs = append(*segs, CritSegment{Cat: blameCat(&node.TraceSpan),
			Name: node.Name, Span: node.Span, PE: node.PE, Start: node.End, End: cursor})
		cursor = node.End
	}
	if cursor > node.Start {
		*segs = append(*segs, CritSegment{Cat: blameCat(&node.TraceSpan),
			Name: node.Name, Span: node.Span, PE: node.PE, Start: node.Start, End: cursor})
		cursor = node.Start
	}
	// Pre-execution wait: decompose (born, Start] backward through the
	// node's annotations, latest end first — a fabric hop's interval is
	// fabric time, a steal point converts the wait after it into post-steal
	// (thief pool) wait, and whatever remains is plain queue wait. born is
	// the spawner's end (AssembleTraces), which an annotation may straddle:
	// its part before born is the spawner's, not the wait's.
	if node.Queue <= 0 {
		return cursor
	}
	born := node.Start - node.Queue
	var notes []*TraceNode
	for _, c := range node.Children {
		if (c.Cat == CatFabric || c.Cat == CatSteal) && c.End > born {
			notes = append(notes, c)
		}
	}
	sort.SliceStable(notes, func(i, j int) bool { return notes[i].End > notes[j].End })
	for _, c := range notes {
		if c.End > cursor { // inside an annotation already charged
			continue
		}
		if cursor > c.End {
			waitCat := CatQueue
			if c.Cat == CatSteal {
				waitCat = CatSteal
			}
			*segs = append(*segs, CritSegment{Cat: waitCat, Name: "wait",
				Span: node.Span, PE: node.PE, Start: c.End, End: cursor})
		}
		cursor = max(c.Start, born)
		if c.End > cursor {
			*segs = append(*segs, CritSegment{Cat: c.Cat, Name: c.Name,
				Span: c.Span, PE: c.PE, Start: cursor, End: c.End})
		}
	}
	if cursor > born {
		*segs = append(*segs, CritSegment{Cat: CatQueue, Name: "wait",
			Span: node.Span, PE: node.PE, Start: born, End: cursor})
		cursor = born
	}
	return cursor
}

// evalMachs returns the Mach of each of tr's eval spans: the machines that
// ran the trace. Machines that share a sink record their collector phases
// into it side by side, and only a trace's own machines' phases held its
// executions up.
func evalMachs(tr *TraceAssembly) []uint32 {
	var machs []uint32
	for _, sp := range tr.Spans {
		if sp.Cat == CatEval && !slices.Contains(machs, sp.Mach) {
			machs = append(machs, sp.Mach)
		}
	}
	return machs
}

// carveGC splits exec segments where they overlap a collector phase of one
// of machs (the CatGC records among globals), re-blaming the overlap to gc.
// Segments arrive and leave oldest first; globals must be Start-sorted.
func carveGC(segs []CritSegment, globals []TraceSpan, machs []uint32) []CritSegment {
	if len(globals) == 0 {
		return segs
	}
	var out []CritSegment
	for _, sg := range segs {
		if sg.Cat != CatExec {
			out = append(out, sg)
			continue
		}
		cur := sg.Start
		for _, g := range globals {
			if g.Cat != CatGC || g.End <= cur || g.Start >= sg.End || !slices.Contains(machs, g.Mach) {
				continue
			}
			if g.Start > cur {
				pre := sg
				pre.Start, pre.End = cur, g.Start
				out = append(out, pre)
			}
			gcSeg := sg
			gcSeg.Cat, gcSeg.Name = CatGC, g.Name
			gcSeg.Start, gcSeg.End = max(cur, g.Start), min(sg.End, g.End)
			out = append(out, gcSeg)
			cur = gcSeg.End
			if cur >= sg.End {
				break
			}
		}
		if cur < sg.End {
			tail := sg
			tail.Start = cur
			out = append(out, tail)
		}
	}
	return out
}
