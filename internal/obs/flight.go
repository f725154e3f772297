package obs

import "sort"

// FlightEvent is one row of the flight recorder's dump: a task execution
// from the scheduler's execution record, or one of the handle's point events
// from the log.
// TS is nanoseconds on the clock; PE is the acting processing element, or
// TIDCollector / TIDFabric / TIDEval for the non-PE actors.
type FlightEvent struct {
	TS   int64  `json:"ts"`
	PE   int    `json:"pe"`
	Kind string `json:"kind"`
	Src  uint64 `json:"src,omitempty"`
	Dst  uint64 `json:"dst,omitempty"`
	Note string `json:"note,omitempty"`
}

// Events returns the point events this handle recorded (collector cycle
// events, the fabric message lifecycle, checker violations), oldest first.
func (o *Obs) Events() []FlightEvent {
	if o == nil {
		return nil
	}
	recs := o.mine(true)
	out := make([]FlightEvent, len(recs))
	for i, sp := range recs {
		out[i] = FlightEvent{TS: sp.Start, PE: sp.PE, Kind: sp.Name, Src: sp.Src, Dst: sp.Dst, Note: sp.Note}
	}
	return out
}

// FlightEvents returns the flight recorder's view: the handle's retained
// point events merged with rows the caller keeps (the task executions of the
// scheduler's execution record), in timestamp order.
func (o *Obs) FlightEvents(rows []FlightEvent) []FlightEvent {
	if o == nil {
		return nil
	}
	out := append(o.Events(), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
