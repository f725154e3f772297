package reduce

import (
	"dgr/internal/graph"
	"dgr/internal/task"
)

func taskDemandEager(src, dst graph.VertexID) task.Task {
	return task.Task{Kind: task.Demand, Src: src, Dst: dst, Req: graph.ReqEager}
}

// ValueOf resolves id through indirections and returns its current value.
// For vertices not yet in WHNF the Kind reflects the unevaluated form.
func (e *Engine) ValueOf(id graph.VertexID) Value {
	v, _ := e.resolveWHNF(id)
	if v == nil {
		return Value{ID: id, Kind: graph.KindHole}
	}
	v.Lock()
	defer v.Unlock()
	val := Value{ID: v.ID, Kind: v.Kind, Int: v.Val}
	if v.Kind == graph.KindBool {
		val.Bool = v.Val != 0
	}
	return val
}

// ConsParts returns the head and tail vertex IDs of a WHNF cons value.
func (e *Engine) ConsParts(id graph.VertexID) (head, tail graph.VertexID, ok bool) {
	v, _ := e.resolveWHNF(id)
	if v == nil {
		return 0, 0, false
	}
	v.Lock()
	defer v.Unlock()
	args := v.Args()
	if v.Kind != graph.KindCons || len(args) != 2 {
		return 0, 0, false
	}
	return args[0], args[1], true
}
