// Package task defines the unit of work of Hudak's model — a task <s,d>
// propagating from a source vertex to a destination vertex — together with
// the per-PE task pools that hold unexecuted tasks.
//
// Both reduction-process tasks (demand, result, reduce) and marking-process
// tasks (mark, return) share the <s,d> representation, as in the paper. Task
// pools are priority-banded because §3.2 requires vital tasks to outrank
// eager ones and the restructuring phase dynamically reprioritizes tasks.
package task

import (
	"fmt"

	"dgr/internal/graph"
)

// Kind discriminates task behavior.
type Kind uint8

// Task kinds. Demand/Result/Reduce belong to the reduction process;
// Mark/Return belong to the marking processes M_R and M_T.
const (
	// Demand is <s,d> requesting the value of d on behalf of s. Req carries
	// the request kind (vital or eager).
	Demand Kind = iota + 1
	// Result is <s,d> returning to d the fact that s has reached weak head
	// normal form; d reads s's value from the graph.
	Result
	// Reduce is <-,d>: step d again. The task whose step left d needing
	// another (a rewrite made it a new redex) runs that step itself, in the
	// same execution, up to the reduction engine's inline budget; only the
	// step past the budget is queued as a Reduce task (DESIGN §8,
	// "A reduction continues in place").
	Reduce
	// Mark is the mark task of Figures 4-1/5-1/5-3: Dst is the vertex to
	// mark, Src is the marking-tree parent, Ctx selects M_R or M_T, and
	// Prior is the mark2 priority (ignored by M_T).
	Mark
	// Return is return1: Dst is the marking-tree parent to notify; Src is
	// the returning vertex (diagnostic only). Dst == NilVertex addresses
	// the collector's rootpar.
	Return
)

var kindNames = [...]string{
	Demand: "demand",
	Result: "result",
	Reduce: "reduce",
	Mark:   "mark",
	Return: "return",
}

// String returns the task kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("task(%d)", uint8(k))
}

// IsMarking reports whether the kind belongs to a marking process.
func (k Kind) IsMarking() bool { return k == Mark || k == Return }

// IsReduction reports whether the kind belongs to the reduction process.
func (k Kind) IsReduction() bool { return k == Demand || k == Result || k == Reduce }

// Priority bands for pool scheduling, from lowest to highest. Marking tasks
// get their own top band so the endless GC cycles make progress even under
// reduction load; within the reduction process, bands implement the paper's
// vital > eager > reserve ordering.
const (
	BandReserve uint8 = iota
	BandEager
	BandVital
	BandMarking
	numBands
)

// NumBands is the number of priority bands a pool schedules over.
const NumBands = int(numBands)

// Task is an unexecuted task <s,d>. The zero value is invalid. The fields
// are ordered by size, so the struct packs into 32 bytes (TestTaskSize):
// every pool ring and PE slot holds tasks by value (a marker's wave list
// packs its marks and returns into 16-byte items).
type Task struct {
	// Src is the source vertex s (NilVertex when the source is irrelevant,
	// written <-,d> in the paper).
	Src graph.VertexID
	// Dst is the destination vertex d; the task executes on the PE owning d.
	Dst  graph.VertexID
	Kind Kind
	// Req is the request kind for Demand tasks.
	Req graph.ReqKind
	// Ctx selects the marking context for Mark/Return tasks.
	Ctx graph.Ctx
	// Prior is the mark2 marking priority (3 vital / 2 eager / 1 reserve).
	Prior uint8
	// Band caches the scheduling band, ComputeBand as of the push.
	Band uint8
	// Epoch tags Mark/Return tasks with their marking cycle so tasks that
	// straddle a cycle boundary (e.g. spawned by a cooperating mutator just
	// as the cycle completes) are dropped instead of corrupting the next
	// cycle's mt-cnt accounting.
	Epoch uint64
	// Parent is the number (the record's Seq plus one) of the execution that
	// spawned or handed off the task, and 0 for a spawn from outside any
	// execution: the root demand, a phase's roots, a cooperating mutator's
	// marks. It is the task's one causal word (DESIGN §9, "Lineage"); no
	// scheduling decision reads it.
	Parent uint64
}

// ComputeBand derives the scheduling band from the task's kind and request
// kind / priority.
func (t Task) ComputeBand() uint8 {
	switch t.Kind {
	case Mark, Return:
		return BandMarking
	case Demand:
		switch t.Req {
		case graph.ReqVital:
			return BandVital
		case graph.ReqEager:
			return BandEager
		default:
			return BandReserve
		}
	case Result, Reduce:
		// Results and continuations inherit vital urgency: they unblock
		// waiting computations.
		return BandVital
	default:
		return BandReserve
	}
}

// String renders the task for diagnostics.
func (t Task) String() string {
	switch t.Kind {
	case Mark:
		return fmt.Sprintf("mark%s<%d,%d,p%d>", t.Ctx, t.Src, t.Dst, t.Prior)
	case Return:
		return fmt.Sprintf("return%s<%d,%d>", t.Ctx, t.Src, t.Dst)
	case Demand:
		return fmt.Sprintf("demand<%d,%d,%s>", t.Src, t.Dst, t.Req)
	case Result:
		return fmt.Sprintf("result<%d,%d>", t.Src, t.Dst)
	case Reduce:
		return fmt.Sprintf("reduce<-,%d>", t.Dst)
	default:
		return fmt.Sprintf("%s<%d,%d>", t.Kind, t.Src, t.Dst)
	}
}
