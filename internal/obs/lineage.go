package obs

// Readers over the log's trace class: assembling the spans of one sampled
// request — admission, task spawn, steal, fabric hop, execution — back into
// its spawn DAG, and computing the critical path with per-category blame
// (exec / queue-wait / steal / fabric / gc-overlap).

import "sort"

// --- Assembly: spans back into per-trace spawn DAGs -----------------------

// TraceNode is one span with its causal children, Start-ordered.
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
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts := byTrace[id]
		sort.Slice(ts, func(i, j int) bool { return ts[i].Start < ts[j].Start })
		asm := &TraceAssembly{ID: id, Spans: ts, Start: ts[0].Start, End: ts[0].End}
		nodes := make(map[uint32]*TraceNode, len(ts))
		for i := range ts {
			nodes[ts[i].Span] = &TraceNode{TraceSpan: ts[i]}
			if ts[i].Start < asm.Start {
				asm.Start = ts[i].Start
			}
			if ts[i].End > asm.End {
				asm.End = ts[i].End
			}
		}
		for i := range ts {
			n := nodes[ts[i].Span]
			if p, ok := nodes[ts[i].Parent]; ok && ts[i].Parent != ts[i].Span {
				p.Children = append(p.Children, n)
				continue
			}
			if ts[i].Parent != 0 {
				asm.Orphans++
			}
			asm.Roots = append(asm.Roots, n)
		}
		traces = append(traces, asm)
	}
	return traces, globals
}

// --- Critical path + per-category blame -----------------------------------

// CritSegment is one contiguous slice of a trace's critical path, blamed to
// one category.
type CritSegment struct {
	Cat   string `json:"cat"`
	Name  string `json:"name"`
	Span  uint32 `json:"span"`
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
// children. Exec time overlapping a global collector interval is re-blamed
// to gc.
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
	segs = carveGC(segs, globals)
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
	// Pre-execution wait: decompose (Born, Start] backward through the
	// node's annotation children — a fabric hop's interval is fabric time, a
	// steal point converts the wait after it into post-steal (thief pool)
	// wait, and whatever remains is plain queue wait on the spawning PE.
	if node.Queue <= 0 {
		return cursor
	}
	born := node.Start - node.Queue
	for cursor > born {
		var best *TraceNode
		for _, c := range node.Children {
			if c.Cat != CatFabric && c.Cat != CatSteal {
				continue
			}
			if c.End > cursor || c.End <= born {
				continue
			}
			if best == nil || c.End > best.End {
				best = c
			}
		}
		if best == nil {
			break
		}
		if cursor > best.End {
			waitCat := CatQueue
			if best.Cat == CatSteal {
				waitCat = CatSteal
			}
			*segs = append(*segs, CritSegment{Cat: waitCat, Name: "wait",
				Span: node.Span, PE: node.PE, Start: best.End, End: cursor})
		}
		if best.End > best.Start {
			*segs = append(*segs, CritSegment{Cat: best.Cat, Name: best.Name,
				Span: best.Span, PE: best.PE, Start: max64(best.Start, born), End: best.End})
		}
		if best.Start >= cursor { // zero-width annotation at the cursor
			break
		}
		cursor = best.Start
	}
	if cursor > born {
		*segs = append(*segs, CritSegment{Cat: CatQueue, Name: "wait",
			Span: node.Span, PE: node.PE, Start: born, End: cursor})
		cursor = born
	}
	return cursor
}

// carveGC splits exec segments where they overlap a collector phase (the
// CatGC records among globals), re-blaming the overlap to gc. Segments arrive
// and leave oldest first; globals must be Start-sorted.
func carveGC(segs []CritSegment, globals []TraceSpan) []CritSegment {
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
			if g.Cat != CatGC || g.End <= cur || g.Start >= sg.End {
				continue
			}
			if g.Start > cur {
				pre := sg
				pre.Start, pre.End = cur, g.Start
				out = append(out, pre)
			}
			gcSeg := sg
			gcSeg.Cat, gcSeg.Name = CatGC, g.Name
			gcSeg.Start, gcSeg.End = max64(cur, g.Start), min64(sg.End, g.End)
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
