package graph

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	s := NewStore(Config{Partitions: 1, Capacity: 8})
	b := NewBuilder(s, 0)
	one := b.Int(1)
	app := b.App(b.Prim(PrimNeg), one)
	app.Lock()
	app.SetReqKind(one.ID, ReqVital)
	app.Unlock()
	one.Lock()
	one.AddRequester(app.ID, ReqVital)
	one.Unlock()

	var sb strings.Builder
	err := s.Snapshot().WriteDOT(&sb, app.ID, map[VertexID]string{one.ID: "red"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph computation",
		"doublecircle",      // the root
		"fillcolor=\"red\"", // highlight
		"style=dotted",      // requester arc
		"*v",                // vital edge label
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "free") {
		t.Error("free vertices should be hidden")
	}
}

// TestWriteDOTGolden pins the exact DOT rendering of a small fixed graph:
// any drift in node attributes, edge styles, or emission order shows up as
// a diff here rather than as silently garbled graph dumps.
func TestWriteDOTGolden(t *testing.T) {
	s := NewStore(Config{Partitions: 1, Capacity: 8})
	b := NewBuilder(s, 0)
	one := b.Int(1)
	two := b.Int(2)
	app := b.App(b.App(b.Prim(PrimAdd), one), two)
	app.Lock()
	app.SetReqKind(two.ID, ReqVital)
	app.Unlock()
	two.Lock()
	two.AddRequester(app.ID, ReqVital)
	two.Unlock()

	var sb strings.Builder
	if err := s.Snapshot().WriteDOT(&sb, app.ID, nil); err != nil {
		t.Fatal(err)
	}
	const golden = `digraph computation {
  rankdir=TB;
  node [shape=circle fontsize=10];
  v4 [label="@" penwidth=2 shape=doublecircle];
  v5 [label="@"];
  v6 [label="+"];
  v7 [label="2"];
  v8 [label="1"];
  v4 -> v5;
  v4 -> v7 [label="*v" penwidth=2];
  v5 -> v6;
  v5 -> v8;
  v4 -> v7 [style=dotted constraint=false];
}
`
	if got := sb.String(); got != golden {
		t.Fatalf("DOT output drifted from golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
