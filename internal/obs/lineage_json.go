package obs

// JSON exposition of assembled lineage traces: the document served at
// /debug/traces.json (serving layer), written by Machine.WriteTracesJSON,
// and consumed by `dgr-trace analyze`. The analyzer recomputes the critical
// path from the raw spans when asked, so the document carries both.

import (
	"encoding/json"
	"io"
)

// TraceDoc is the lineage exposition document: every assembled trace with
// its critical-path analysis, plus the collector phases (CatGC records) they
// overlap and how many trace spans and global records the log has evicted.
// An evicted global record may be a collector phase: the critical path then
// blames the execution it overlapped as exec, not gc.
type TraceDoc struct {
	Traces        []TraceReport `json:"traces"`
	Globals       []TraceSpan   `json:"globals,omitempty"`
	Dropped       uint64        `json:"dropped,omitempty"`
	GlobalDropped uint64        `json:"global_dropped,omitempty"`
}

// TraceReport is one assembled trace: its raw spans (Start-ordered) and the
// critical path with per-category blame.
type TraceReport struct {
	ID      uint64      `json:"id"`
	Start   int64       `json:"start"`
	End     int64       `json:"end"`
	TotalNs int64       `json:"total_ns"`
	Orphans int         `json:"orphans,omitempty"`
	Spans   []TraceSpan `json:"spans"`
	Crit    CritReport  `json:"critical"`
}

// BuildTraceDoc builds the exposition document from spans, assembling each
// trace and running the critical-path analysis; dropped is how many spans
// were lost before the caller got them (a sink's Spans returns both).
func BuildTraceDoc(spans []TraceSpan, dropped uint64) TraceDoc {
	traces, globals := AssembleTraces(spans)
	doc := TraceDoc{Globals: globals, Dropped: dropped}
	for _, tr := range traces {
		crit := CriticalPath(tr, globals)
		doc.Traces = append(doc.Traces, TraceReport{
			ID: tr.ID, Start: tr.Start, End: tr.End,
			TotalNs: crit.TotalNs, Orphans: tr.Orphans,
			Spans: tr.Spans, Crit: crit,
		})
	}
	return doc
}

// Doc builds the sink's exposition document, with both eviction counts.
func (s *TraceSink) Doc() TraceDoc {
	doc := BuildTraceDoc(s.Spans())
	doc.GlobalDropped = s.GlobalDropped()
	return doc
}

// WriteTracesJSON writes the sink's assembled traces as an indented
// TraceDoc.
func WriteTracesJSON(w io.Writer, s *TraceSink) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Doc())
}
