package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestLogRing: a handle's events wrap in the log's global class, oldest
// evicted first, retained in recording order.
func TestLogRing(t *testing.T) {
	o := New(Options{Log: NewTraceSink(8, 0)}) // global class: 1024 records
	for i := 0; i < 1024+5; i++ {
		o.Event(TIDFabric, "step", uint64(i), uint64(i+1), "")
	}
	evs := o.Events()
	if len(evs) != 1024 {
		t.Fatalf("retained %d events, want 1024", len(evs))
	}
	if evs[0].Src != 5 || evs[1023].Src != 1028 || evs[1023].Dst != 1029 {
		t.Fatalf("wrong window: first %+v last %+v", evs[0], evs[1023])
	}
}

// TestLogDropped: nothing is reported dropped up to exactly capacity, and
// dropped plus retained always equals the number recorded.
func TestLogDropped(t *testing.T) {
	s := NewTraceSink(8, 0)
	o := New(Options{Log: s})
	if s.GlobalDropped() != 0 {
		t.Fatalf("dropped on a fresh log = %d, want 0", s.GlobalDropped())
	}
	for i := 0; i < 1024; i++ {
		o.Event(TIDCollector, "step", 0, 0, "")
	}
	if s.GlobalDropped() != 0 {
		t.Fatalf("dropped at exactly capacity = %d, want 0", s.GlobalDropped())
	}
	for i := 0; i < 4; i++ {
		o.Event(TIDCollector, "step", 0, 0, "")
	}
	if s.GlobalDropped() != 4 {
		t.Fatalf("dropped after wraparound = %d, want 4", s.GlobalDropped())
	}
	if got := s.GlobalDropped() + uint64(len(o.Events())); got != 1028 {
		t.Fatalf("dropped+retained = %d, recorded 1028", got)
	}
	if _, dropped := s.Spans(); dropped != 0 {
		t.Fatalf("trace class reports %d dropped with nothing recorded in it", dropped)
	}
}

// TestLogTimestamps: records carry the process clock — positive, in order,
// the clock time.Time values convert onto — and the JSONL rows carry the
// same stamps.
func TestLogTimestamps(t *testing.T) {
	o := New(Options{})
	before := time.Now()
	o.Event(TIDFabric, "a", 1, 2, "")
	o.Event(TIDFabric, "b", 2, 3, "")
	start := o.Now()
	o.Span("s", CatCollector, TIDCollector, start, 0)
	after := time.Now()

	evs := o.Events()
	if evs[0].TS <= 0 || evs[1].TS < evs[0].TS {
		t.Fatalf("event stamps %d then %d, want positive and ordered", evs[0].TS, evs[1].TS)
	}
	if evs[0].TS < At(before) || evs[1].TS > At(after) {
		t.Fatalf("event stamps [%d, %d] outside At(before)=%d .. At(after)=%d",
			evs[0].TS, evs[1].TS, At(before), At(after))
	}
	if sp := o.Spans()[0]; sp.Start != start || sp.End < sp.Start || sp.End > At(after) {
		t.Fatalf("span [%d, %d], want start %d and an end before %d", sp.Start, sp.End, start, At(after))
	}
}

// TestWriteEventsJSONL: with no rows from the caller (a traced machine's
// flight dump has no executions) a handle's flight view is one row per point
// event, spans excluded; as JSON Lines its fields round-trip and an empty
// note is omitted.
func TestWriteEventsJSONL(t *testing.T) {
	o := New(Options{})
	o.Event(TIDFabric, "fab.flush", 0, 1, "seq=1 n=3 attempt=0")
	o.Span("fab-batch", CatFabric, TIDFabric, o.Now(), 3)
	o.Event(TIDFabric, "fab.deliver", 0, 1, "")
	var lines []string
	for _, e := range o.FlightEvents(nil) {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if len(lines) != 2 {
		t.Fatalf("%d rows, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var e FlightEvent
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "fab.flush" || e.PE != TIDFabric || e.Src != 0 || e.Dst != 1 || e.Note != "seq=1 n=3 attempt=0" {
		t.Fatalf("round-trip = %+v", e)
	}
	if strings.Contains(lines[1], "note") {
		t.Fatalf("empty note not omitted: %s", lines[1])
	}
}
