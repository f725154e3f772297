package exp

import (
	"fmt"
	"unsafe"

	"dgr/internal/graph"
)

func init() {
	register(Experiment{ID: "space", Title: "§6: per-vertex space overhead of the marking fields", Run: runSpace})
}

// runSpace quantifies the space cost §6 discusses: "each vertex requires
// space for mt-cnt, mt-par, and marking bits" — doubled here because M_R
// and M_T keep distinct bookkeeping (§5.2). The paper notes [6] can fold
// all mt-cnts and mt-pars into two words per PE; we keep them per-vertex,
// which §6 sanctions for systems with larger object granularity, and
// measure what that choice costs.
func runSpace(cfg Config) (*Table, error) {
	var v graph.Vertex
	var mc graph.MarkCtx

	vertexSize := unsafe.Sizeof(v)
	ctxSize := unsafe.Sizeof(mc)
	markBytes := 2 * ctxSize // RCtx + TCtx
	stampBytes := unsafe.Sizeof(v.Red.AllocEpoch) + unsafe.Sizeof(v.Red.AllocEpochT)

	t := &Table{
		ID:      "space",
		Title:   "marking-field overhead per vertex (this implementation)",
		Columns: []string{"component", "bytes", "% of vertex struct"},
	}
	pct := func(n uintptr) string {
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(vertexSize))
	}
	t.AddRow("Vertex struct (first 2 args, first requester inline)", vertexSize, "100%")
	t.AddRow("one MarkCtx (epoch, mt-cnt, mt-par, state, prior)", ctxSize, pct(ctxSize))
	t.AddRow("both contexts (M_R + M_T, §5.2)", markBytes, pct(markBytes))
	t.AddRow(fmt.Sprintf("allocation stamps (axiom-1 sweep guard, 2 × %d-bit)", 8*unsafe.Sizeof(v.Red.AllocEpoch)), stampBytes, pct(stampBytes))
	class := heapClass(graph.SegmentBytes + mallocHeader)
	t.AddRow("segment (64 vertices and the in-use word)", graph.SegmentBytes, "-")
	t.AddRow("segment's heap size class (what one costs the allocator)", class, "-")
	t.Note("a larger edge set lives in an overflow record the vertex holds only while it needs one")
	t.Note("the paper's space optimization [6] folds every mt-cnt and mt-par into two words per PE; kept per-vertex here (sanctioned by §6 for coarser granularity) and traded for O(1) epoch-based unmarking between cycles")

	// Sanity: the marking overhead must stay a bounded fraction.
	if float64(markBytes) > 0.8*float64(vertexSize) {
		return t, fmt.Errorf("space: marking fields dominate the vertex (%d of %d bytes)", markBytes, vertexSize)
	}
	if class < graph.SegmentBytes || class > graph.SegmentBytes+graph.SegmentBytes/8 {
		return t, fmt.Errorf("space: a %d-byte segment costs the heap %d bytes", graph.SegmentBytes, class)
	}
	return t, nil
}

// mallocHeader is the header Go (1.22 on) puts on an object of more than
// 512 bytes that holds pointers, up to 32 KiB: a segment is one.
const mallocHeader = 8

// heapClass is the bytes the Go allocator spends on an n-byte object: an
// append to a nil slice rounds its capacity up to the size class (or, past
// 32 KiB, to whole pages).
func heapClass(n uintptr) uintptr {
	return uintptr(cap(append([]byte(nil), make([]byte, n)...)))
}
