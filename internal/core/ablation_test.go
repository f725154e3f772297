package core

import (
	"testing"

	"dgr/internal/graph"
)

// TestCooperationIsLoadBearing is the ablation for the §4.2 argument: with
// the Figure 4-2 cooperation disabled, the add-reference/delete-reference
// race must actually lose c in at least one interleaving (it is not merely
// hypothetical), whereas with cooperation it never does (TestSection42Race).
func TestCooperationIsLoadBearing(t *testing.T) {
	lost := 0
	trials := 0
	for mutateAt := 0; mutateAt < 12; mutateAt++ {
		for seed := int64(0); seed < 8; seed++ {
			r := newRig(t, 2, seed, true).taskPerArc()
			r.mut.SetCooperation(false)
			a := r.vertex(graph.KindApply)
			b := r.vertex(graph.KindApply)
			c := r.vertex(graph.KindApply)
			r.edge(a, b, graph.ReqVital)
			r.edge(b, c, graph.ReqVital)

			r.marker.StartCycle(graph.CtxR, []Root{{ID: a.ID, Prior: graph.PriorVital}})
			steps, mutated := 0, false
			for !r.marker.Done(graph.CtxR) {
				if steps == mutateAt && !mutated {
					r.mut.AddReference(a, b, c, graph.ReqVital)
					r.mut.DeleteReference(b, c)
					mutated = true
				}
				if !r.mach.Step() {
					break
				}
				steps++
			}
			if !mutated || !r.marker.Done(graph.CtxR) {
				continue
			}
			trials++
			if st := r.stateOf(c, graph.CtxR); st != graph.Marked {
				lost++
			}
		}
	}
	if trials == 0 {
		t.Skip("no interleaving reached the mutation point")
	}
	if lost == 0 {
		t.Fatalf("cooperation disabled across %d trials and c was never lost — the race scenario (or the ablation switch) is broken", trials)
	}
	t.Logf("without cooperation: c lost in %d/%d interleavings (with cooperation: 0, see TestSection42Race)", lost, trials)
}
