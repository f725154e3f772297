package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dgr/internal/metrics"
)

// TestNilSafety exercises every recording path on a nil *Obs — the disabled
// layer must be a total no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var o *Obs
	o.Span("x", "y", 0, 0, 0)
	o.Event(0, "k", 0, 0, "")
	o.EndEval(o.BeginEval(1, 0, 1))
	if tr, now := o.Traced(true, 0); tr != nil || now != 0 {
		t.Fatal("nil Obs traced a task")
	}
	if o.Now() != 0 || o.Lineage() != nil || o.Spans() != nil || o.Events() != nil ||
		o.FlightEvents(nil) != nil {
		t.Fatal("nil Obs returned non-zero data")
	}
	if err := o.WriteSpansJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestTracingOnlyHandle: a handle built for lineage tracing logs spans and
// events, and one built without a rate or a shared log traces nothing.
func TestTracingOnlyHandle(t *testing.T) {
	o := New(Options{TraceRate: 1})
	if o.Lineage() == nil {
		t.Fatal("TraceRate > 0 must enable lineage")
	}
	o.Span("M_R", CatGC, TIDCollector, o.Now(), 1)
	if sp := o.Spans(); len(sp) != 1 || sp[0].Name != "M_R" {
		t.Fatalf("spans = %+v, want the one M_R", sp)
	}
	if New(Options{}).Lineage() != nil {
		t.Fatal("lineage on without TraceRate or a shared log")
	}
}

func TestSpanRingAndJSONL(t *testing.T) {
	o := New(Options{Log: NewTraceSink(8, 0)}) // global class: 1024 records
	const n = 1024 + 2
	for i := 0; i < n; i++ {
		start := o.Now()
		o.Span("s", "cat", i, start, int64(i))
	}
	spans := o.Spans()
	if len(spans) != 1024 {
		t.Fatalf("retained %d spans, want 1024 (capacity)", len(spans))
	}
	if spans[0].PE != 2 || spans[1023].PE != n-1 {
		t.Fatalf("ring kept wrong window: %d..%d", spans[0].PE, spans[1023].PE)
	}

	var buf bytes.Buffer
	if err := o.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if ev.Ph != "X" || ev.Name != "s" {
			t.Fatalf("bad chrome trace event: %+v", ev)
		}
	}
	if lines != 1024 {
		t.Fatalf("JSONL lines = %d, want 1024", lines)
	}
}

// TestFlightRecorder: the flight view merges the rows the caller keeps (the
// scheduler's record stamps each execution with its busy window's clock)
// with the handle's point events, in timestamp order.
func TestFlightRecorder(t *testing.T) {
	o := New(Options{})
	o.Event(TIDCollector, "cycle.start", 0, 0, "n=1")
	var execs []FlightEvent
	for i := 0; i < 64; i++ {
		execs = append(execs, FlightEvent{TS: Now(), PE: 0, Kind: "demand", Src: uint64(i), Dst: uint64(i + 100)})
	}
	o.Event(TIDFabric, "fab.flush", 0, 0, "seq=1")
	evs := o.FlightEvents(execs)
	var n, coll, fab int
	for _, e := range evs {
		switch {
		case e.Kind == "demand":
			if e != execs[n] {
				t.Fatalf("execution row %d = %+v, want %+v", n, e, execs[n])
			}
			n++
		case e.PE == TIDCollector:
			coll++
		case e.PE == TIDFabric:
			fab++
		}
	}
	if n != len(execs) || coll != 1 || fab != 1 {
		t.Fatalf("execs=%d coll=%d fab=%d, want %d/1/1", n, coll, fab, len(execs))
	}
	if evs[0].Kind != "cycle.start" || evs[len(evs)-1].Kind != "fab.flush" {
		t.Fatalf("point events not placed by time: first %+v, last %+v", evs[0], evs[len(evs)-1])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatal("flight events not merged in timestamp order")
		}
	}
}

// TestConcurrentRecording drives the log from several writers and readers
// at once under -race: no record is lost.
func TestConcurrentRecording(t *testing.T) {
	o := New(Options{})
	const writers, n = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				o.Span("pe-batch", CatSched, w, o.Now(), 1)
				o.Event(w, "cycle", 0, 0, "")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			o.FlightEvents(nil)
			o.Spans()
		}
	}()
	wg.Wait()
	spans := make([]int64, writers)
	for _, s := range o.Spans() {
		spans[s.PE] += s.N
	}
	for w, got := range spans {
		if got != n {
			t.Errorf("writer %d: %d spans retained, want %d", w, got, n)
		}
	}
	if got := len(o.Events()); got != writers*n {
		t.Errorf("%d events retained, want %d", got, writers*n)
	}
}

func TestWritePrometheus(t *testing.T) {
	var hist metrics.Counters
	hist.FabricLatency.Observe(3)
	hist.FabricLatency.Observe(100)
	s := hist.Snapshot()
	s.TasksExecuted = 42
	s.FabricSent = 2

	var buf bytes.Buffer
	err := WritePrometheus(&buf, PromData{
		Stats:       s,
		Gauges:      Gauges{PEs: 2, Heap: 100, Free: 60, Inflight: 5},
		FreePerPart: []int{30, 30},
		PoolBands:   [][Bands]int{{1, 0, 2, 0}, {0, 0, 0, 3}},
		BusyNs:      []int64{500_000_000, 1_250_000_000},
		ExecsPerPE:  []int64{21, 21},
		Tenants: []TenantProm{{
			Name: "alice", Requests: 7, Admitted: 6, Completed: 5, Failed: 1,
			RejectedQuota: 1, CacheHits: 2, CacheMisses: 4,
			Inflight: 1, ChargedVertices: 2048, VertexQuota: 32768,
			LatencyP50Us: 120, LatencyP95Us: 900,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dgr_tasks_executed_total 42",
		"dgr_free_vertices 60",
		`dgr_partition_free_vertices{part="1"} 30`,
		`dgr_pe_queue_depth{pe="0",band="vital"} 2`,
		`dgr_pe_queue_depth{pe="1",band="marking"} 3`,
		`dgr_pe_busy_seconds_total{pe="1"} 1.250000000`,
		`dgr_pe_tasks_executed_total{pe="0"} 21`,
		"dgr_fabric_latency_us_count 2",
		"# TYPE dgr_tasks_executed_total counter",
		"# TYPE dgr_inflight_tasks gauge",
		`dgr_tenant_requests_total{tenant="alice"} 7`,
		`dgr_tenant_rejected_quota_total{tenant="alice"} 1`,
		`dgr_tenant_cache_hits_total{tenant="alice"} 2`,
		`dgr_tenant_charged_vertices{tenant="alice"} 2048`,
		`dgr_tenant_latency_p95_us{tenant="alice"} 900`,
		"# TYPE dgr_tenant_requests_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Histogram buckets must be cumulative.
	if !strings.Contains(out, `dgr_fabric_latency_us_bucket{le="+Inf"} 2`) {
		t.Error("histogram +Inf bucket wrong")
	}
}

// TestPrometheusCoversSnapshot is telemetry about the telemetry: every field
// of metrics.Snapshot comes out of WritePrometheus with its own value. The
// exposition walks the snapshot's declaration, so this holds by construction
// for a tagged counter; the test is what fails when a field is added without
// tags, or as something other than a plain counter.
func TestPrometheusCoversSnapshot(t *testing.T) {
	skip := map[string]string{
		"FabricLatency": "a histogram; TestWritePrometheus checks its buckets",
	}
	var s metrics.Snapshot
	v := reflect.ValueOf(&s).Elem()
	want := map[string]int64{}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if skip[name] != "" {
			continue
		}
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Snapshot.%s is not a plain counter: render it and say how it is checked in skip", name)
		}
		want[name] = int64(7_000_001 + i) // distinct, and nothing else prints it
		v.Field(i).SetInt(want[name])
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, PromData{Stats: s}); err != nil {
		t.Fatal(err)
	}
	for name, val := range want {
		if !strings.Contains(buf.String(), fmt.Sprintf("_total %d\n", val)) {
			t.Errorf("metrics.Snapshot.%s is not in the /metrics exposition", name)
		}
	}
}
