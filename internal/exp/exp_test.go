package exp

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fabdrop", "fabric", "fig31", "fig32", "irrelevant", "mtfreq", "obs", "pause", "pes",
		"priority", "programs", "race", "refcount", "scale", "space", "thm1", "thm2", "venn",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry IDs = %v, want %v", got, want)
		}
	}
	if _, ok := Get("fig31"); !ok {
		t.Fatal("Get failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get returned unknown experiment")
	}
}

// TestAllExperimentsQuick runs every experiment in Quick mode; each one
// self-validates its own invariants (containments, classifications, no
// losses) and returns an error when the paper's property fails to hold.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(Config{Quick: true, Seed: 7})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			var sb strings.Builder
			tbl.Fprint(&sb)
			out := sb.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s: rendering broken:\n%s", e.ID, out)
			}
			t.Log("\n" + out)
		})
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long column"},
	}
	tbl.AddRow(1, "v")
	tbl.AddRow("wide value", 2)
	tbl.Note("n=%d", 3)
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "long column", "wide value", "note: n=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
