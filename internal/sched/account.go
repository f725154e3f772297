package sched

import (
	"time"

	"dgr/internal/obs"
)

// Execution accounting runs exactly while the execution record is on and
// the machine has an obs handle, its one reader (Config.Obs). Each PE's
// slot keeps its busy time and its open "pe-batch" span (the executions
// since the PE last went idle, recorded through Config.Obs), and each
// execution entry is stamped with the clock of the busy window it ran in
// (Entry.At). The clock is read once per clockExecs executions of a window
// and when a window opens after idle, never per execution.

const (
	// clockExecs is how many executions share one clock reading in the
	// steady state. Busy time accrues exactly at every idle and safe point,
	// and within clockExecs-1 executions otherwise.
	clockExecs = 32
	// maxBatchSpan splits an open batch, so that a long busy period still
	// yields periodic spans instead of one giant one.
	maxBatchSpan = int64(10 * time.Millisecond)
)

// window is a seeded machine's one busy window, kept in its record: one
// goroutine runs every PE there, so the PEs share its clock readings (see
// accrue). A parallel machine's PEs keep their own in their slots
// (curSlot.last, n, clocked).
type window struct {
	last    int64 // the clock at the window's previous reading
	n       int32 // executions since that reading
	clocked bool  // last was read since the PEs last went idle
}

// begin opens PE slot s's busy window if it is closed: the first execution
// after idle reads the clock. Otherwise the previous reading doubles as this
// execution's start, charging the scheduler's pop to busy time, the honest
// reading for a utilization metric.
func (m *Machine) begin(s *curSlot) {
	last, clocked := &s.last, &s.clocked
	if m.cfg.Mode != Parallel {
		last, clocked = &m.rec.seq.last, &m.rec.seq.clocked
	}
	if !*clocked {
		*last, *clocked = obs.Now(), true
	}
}

// end counts an execution of PE pe into its window and its open batch, and
// returns the window's clock reading, the time the record stamps it with.
func (m *Machine) end(pe int) int64 {
	s := &m.current[pe]
	s.n++
	last, n := &s.last, s.n
	if m.cfg.Mode != Parallel {
		m.rec.seq.n++
		last, n = &m.rec.seq.last, m.rec.seq.n
	}
	if s.batchN == 0 {
		s.batchStart = *last
	}
	s.batchN++
	if n >= clockExecs {
		m.accrue(pe)
		if *last-s.batchStart >= maxBatchSpan {
			m.flushBatch(pe)
		}
	}
	return *last
}

// accrue reads the clock and charges the time since PE pe's window's
// previous reading as busy time. On a parallel machine it is all PE pe's.
// On a seeded one it is shared among the PEs in proportion to the
// executions each ran in it: a PE switch then reads no clock, and the busy
// times add up to at most the wall time. Only the window's writer calls it.
func (m *Machine) accrue(pe int) {
	now := obs.Now()
	if m.cfg.Mode == Parallel {
		s := &m.current[pe]
		s.busy.Add(now - s.last)
		s.n, s.last = 0, now
		return
	}
	d := now - m.rec.seq.last
	for i := range m.current {
		if s := &m.current[i]; s.n > 0 {
			s.busy.Add(d * int64(s.n) / int64(m.rec.seq.n))
			s.n = 0
		}
	}
	m.rec.seq.n, m.rec.seq.last = 0, now
}

// idle ends PE pe's busy period: its pending busy time accrues exactly, its
// open batch closes into a span, and its next execution reads the clock
// afresh, so that the wait is not charged as busy time. Only the PE's
// writer calls it: its goroutine, or a seeded machine's one.
func (m *Machine) idle(pe int) {
	s := &m.current[pe]
	if s.n > 0 {
		m.accrue(pe)
	}
	m.flushBatch(pe)
	s.clocked = false
}

// flushBatch closes PE pe's open batch into a "pe-batch" span.
func (m *Machine) flushBatch(pe int) {
	s := &m.current[pe]
	if s.batchN == 0 {
		return
	}
	m.cfg.Obs.Span("pe-batch", obs.CatSched, pe, s.batchStart, int64(s.batchN))
	s.batchN = 0
}

// FlushBatches is a seeded machine's safe point for the accounting: every
// PE goes idle (pending busy time accrues, open batches close into spans,
// and the time until the next execution is not busy), so that what reads
// the spans and busy times between steps reads exact totals. The caller
// steps the machine, or holds its stepping off. A parallel machine's PEs go
// idle themselves each time they park, the last time before they leave, so
// there it does nothing; nor with the accounting off.
func (m *Machine) FlushBatches() {
	if m.rec == nil || m.cfg.Obs == nil || m.cfg.Mode == Parallel {
		return
	}
	for pe := range m.current {
		m.idle(pe)
	}
	m.rec.seq.clocked = false
}

// BusyNs returns PE pe's nanoseconds spent executing tasks (0 with the
// accounting off). Safe for concurrent use; it lags live execution by at most
// clockExecs-1 executions.
func (m *Machine) BusyNs(pe int) int64 { return m.current[pe].busy.Load() }
