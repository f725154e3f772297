package graph

import (
	"fmt"
	"io"
)

// WriteDOT renders the snapshot as Graphviz DOT, free vertices omitted. The
// root is double-circled and highlight colors specific vertices (e.g.
// deadlocked ones). Solid arcs are args edges (bold for vital, labeled for
// eager); dotted arcs are requested(v) entries, drawn from the requester as
// in the paper's figures.
func (s *Snapshot) WriteDOT(w io.Writer, root VertexID, highlight map[VertexID]string) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("digraph computation {\n  rankdir=TB;\n  node [shape=circle fontsize=10];\n")
	for i := 1; i <= s.Len(); i++ {
		sv := s.Vertex(VertexID(i))
		if sv == nil || sv.Kind == KindFree {
			continue
		}
		attrs := fmt.Sprintf("label=%q", dotLabel(sv))
		if sv.ID == root {
			attrs += " penwidth=2 shape=doublecircle"
		}
		if color, ok := highlight[sv.ID]; ok {
			attrs += fmt.Sprintf(" style=filled fillcolor=%q", color)
		}
		p("  v%d [%s];\n", sv.ID, attrs)
	}
	for i := 1; i <= s.Len(); i++ {
		sv := s.Vertex(VertexID(i))
		if sv == nil || sv.Kind == KindFree {
			continue
		}
		for j, c := range sv.Args {
			style := ""
			switch sv.ReqKinds[j] {
			case ReqVital:
				style = ` [label="*v" penwidth=2]`
			case ReqEager:
				style = ` [label="*e"]`
			}
			p("  v%d -> v%d%s;\n", sv.ID, c, style)
		}
		for _, r := range sv.Requested {
			p("  v%d -> v%d [style=dotted constraint=false];\n", r.Src, sv.ID)
		}
	}
	p("}\n")
	return err
}

func dotLabel(sv *SnapVertex) string {
	switch sv.Kind {
	case KindInt:
		return fmt.Sprintf("%d", sv.Val)
	case KindBool:
		if sv.Val != 0 {
			return "true"
		}
		return "false"
	case KindComb:
		return Comb(sv.Val).String()
	case KindSuper:
		return fmt.Sprintf("$%d", sv.Val)
	case KindPrim, KindPrimApp:
		return Prim(sv.Val).String()
	case KindApply:
		return "@"
	case KindInd:
		return "→"
	case KindCons:
		return ":"
	case KindNil:
		return "[]"
	default:
		return sv.Kind.String()
	}
}
