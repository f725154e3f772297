package check

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/task"
)

func partMod(n int) func(graph.VertexID) int {
	return func(id graph.VertexID) int { return int(id) % n }
}

// TestEventJSONLRoundTrip: execution record entries convert to the log's
// events — a cycle's roots folded into it, an absorb without seq or PE — and
// the events survive JSON Lines unchanged.
func TestEventJSONLRoundTrip(t *testing.T) {
	events := Events([]sched.Entry{
		{Op: sched.OpExec, Seq: 0, PE: 2, Kind: task.Demand, Src: 1, Dst: 2, Req: graph.ReqVital},
		{Op: sched.OpCycle, Seq: 1, Ctx: graph.CtxT},
		{Op: sched.OpRoot, Seq: 1, Dst: 5},
		{Op: sched.OpRoot, Seq: 1, Dst: 9, Prior: graph.PriorVital},
		{Op: sched.OpExec, Seq: 1, Kind: task.Mark, Dst: 5, Ctx: graph.CtxT, Epoch: 7},
		{Op: sched.OpAbsorb, Seq: 2, PE: 3, Kind: task.Return, Src: 5, Ctx: graph.CtxT, Epoch: 7},
		{Op: sched.OpRestructure, Seq: 2, MT: true},
	})
	want := []Event{
		{Ev: EvExec, PE: 2, Kind: task.Demand, Src: 1, Dst: 2, Req: graph.ReqVital},
		{Ev: EvCycle, Ctx: graph.CtxT, Roots: []RootRec{{ID: 5}, {ID: 9, Prior: graph.PriorVital}}},
		{Ev: EvExec, Seq: 1, Kind: task.Mark, Dst: 5, Ctx: graph.CtxT, Epoch: 7},
		{Ev: EvAbsorb, Kind: task.Return, Src: 5, Ctx: graph.CtxT, Epoch: 7},
		{Ev: EvRestructure, MT: true},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("converted\n%+v\nwant\n%+v", events, want)
	}
	events = append([]Event{{Ev: EvMeta, Program: "fib", Config: "parallel", Seed: 42, PEs: 4, MTEvery: 3}}, events...)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("wrote\n%+v\nread\n%+v", events, got)
	}
}

// fanout is a deterministic handler: each task below the limit spawns one
// follow-up. The spawn depends only on the executed task, so a parallel
// recording replays exactly.
type fanout struct {
	m     *sched.Machine
	limit graph.VertexID
	mu    sync.Mutex
	order []graph.VertexID
}

func (f *fanout) Handle(_ int, tk task.Task) {
	f.mu.Lock()
	f.order = append(f.order, tk.Dst)
	f.mu.Unlock()
	if tk.Dst < f.limit {
		f.m.Spawn(task.Task{Kind: task.Reduce, Src: tk.Dst, Dst: tk.Dst + 3})
	}
}

func TestRecordReplayDeterministic(t *testing.T) {
	m := sched.New(sched.Config{
		PEs: 3, Mode: sched.Deterministic, Seed: 9, Adversarial: true,
		PartOf: partMod(3),
	})
	m.SetRecord(true)
	h := &fanout{m: m, limit: 60}
	m.SetHandler(h)
	for i := 1; i <= 3; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	m.RunToQuiescence(0)
	recorded := h.order

	// Replay on a fresh machine with a different seed: the log, not the
	// RNG, must dictate the order.
	m2 := sched.New(sched.Config{PEs: 3, Mode: sched.Deterministic, Seed: 777, PartOf: partMod(3)})
	h2 := &fanout{m: m2, limit: 60}
	m2.SetHandler(h2)
	for i := 1; i <= 3; i++ {
		m2.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	rp := &Replayer{Mach: m2}
	if err := rp.Run(Events(m.Record())); err != nil {
		t.Fatal(err)
	}
	if len(h2.order) != len(recorded) {
		t.Fatalf("replay executed %d tasks, recorded %d", len(h2.order), len(recorded))
	}
	for i := range recorded {
		if h2.order[i] != recorded[i] {
			t.Fatalf("replay order diverged at %d: %v vs %v", i, h2.order[:i+1], recorded[:i+1])
		}
	}
	if m2.Inflight() != 0 {
		t.Fatalf("replay left inflight = %d", m2.Inflight())
	}
}

func TestRecordReplayParallel(t *testing.T) {
	m := sched.New(sched.Config{PEs: 4, Mode: sched.Parallel, PartOf: partMod(4)})
	m.SetRecord(true)
	h := &fanout{m: m, limit: 300}
	m.SetHandler(h)
	m.Start()
	for i := 1; i <= 4; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	m.WaitQuiescent()
	m.Stop()

	events := Events(m.Record())
	if len(events) != len(h.order) {
		t.Fatalf("recorded %d events for %d executions", len(events), len(h.order))
	}

	replayOrder := func() []graph.VertexID {
		m2 := sched.New(sched.Config{PEs: 4, Mode: sched.Deterministic, Seed: 1, PartOf: partMod(4)})
		h2 := &fanout{m: m2, limit: 300}
		m2.SetHandler(h2)
		for i := 1; i <= 4; i++ {
			m2.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
		}
		rp := &Replayer{Mach: m2}
		if err := rp.Run(events); err != nil {
			t.Fatal(err)
		}
		return h2.order
	}

	a, b := replayOrder(), replayOrder()
	if len(a) != len(events) {
		t.Fatalf("replay executed %d, recorded %d", len(a), len(events))
	}
	// Replay-of-replay is bit-for-bit.
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two replays diverged at %d", i)
		}
	}
	// The replay is a serialization of the parallel run: log order.
	for i, e := range events {
		if a[i] != e.Dst {
			t.Fatalf("replay %d executed v%d, log says v%d", i, a[i], e.Dst)
		}
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	m := sched.New(sched.Config{PEs: 2, Mode: sched.Deterministic, Seed: 3, PartOf: partMod(2)})
	m.SetRecord(true)
	h := &fanout{m: m, limit: 20}
	m.SetHandler(h)
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	m.RunToQuiescence(0)

	events := Events(m.Record())
	// Tamper with an event: a task that was never spawned.
	events[len(events)/2].Dst = 9999
	events[len(events)/2].PE = 1

	m2 := sched.New(sched.Config{PEs: 2, Mode: sched.Deterministic, Seed: 3, PartOf: partMod(2)})
	m2.SetHandler(&fanout{m: m2, limit: 20})
	m2.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	err := (&Replayer{Mach: m2}).Run(events)
	if err == nil {
		t.Fatal("tampered log replayed without divergence")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("error %q does not mention divergence", err)
	}
}

// newCheckRig builds a machine + marker + checker over an empty store.
func newCheckRig(t *testing.T, pes int) (*sched.Machine, *core.Marker, *Checker, *metrics.Counters) {
	t.Helper()
	store := graph.NewStore(graph.Config{Partitions: pes})
	var c metrics.Counters
	m := sched.New(sched.Config{
		PEs: pes, Mode: sched.Deterministic, Seed: 1,
		PartOf: store.PartitionOf, Counters: &c,
	})
	marker := core.NewMarker(store, m, &c)
	m.SetHandler(marker)
	chk := &Checker{Store: store, Marker: marker, Mach: m, Counters: &c, Every: 1}
	return m, marker, chk, &c
}

func TestCheckerCleanRun(t *testing.T) {
	m, marker, chk, c := newCheckRig(t, 2)
	// A marking cycle over missing vertices: marks return immediately.
	done := marker.StartCycle(graph.CtxR, []core.Root{{ID: 1, Prior: graph.PriorVital}, {ID: 2, Prior: graph.PriorVital}})
	m.RunUntil(func() bool { return marker.Done(graph.CtxR) }, 0)
	<-done
	chk.AtQuiescence()
	if err := chk.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v\n%v", err, chk.Violations())
	}
	if c.CheckRuns.Load() == 0 {
		t.Fatal("checker never ran")
	}
	if c.CheckViolations.Load() != 0 {
		t.Fatalf("violations = %d on a clean run", c.CheckViolations.Load())
	}
}

func TestCheckerCatchesSmuggledTask(t *testing.T) {
	m, _, chk, c := newCheckRig(t, 2)
	// Push into a pool behind the machine's back: pool count rises but
	// inflight does not — conservation must fail.
	m.Pool(0).Push(task.Task{Kind: task.Reduce, Dst: 2})
	chk.AtQuiescence()
	err := chk.Err()
	if err == nil {
		t.Fatal("smuggled task not caught")
	}
	if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("error %q is not a conservation violation", err)
	}
	if c.CheckViolations.Load() == 0 {
		t.Fatal("violation counter not bumped")
	}
}

func TestCheckerCatchesLostReturns(t *testing.T) {
	m, marker, chk, _ := newCheckRig(t, 2)
	// Start a cycle, then expunge its mark tasks: the machine quiesces with
	// the cycle still active — the lost-marks signature.
	marker.StartCycle(graph.CtxR, []core.Root{{ID: 1, Prior: graph.PriorVital}})
	for pe := 0; pe < m.PEs(); pe++ {
		m.Expunge(pe, func(task.Task) bool { return true })
	}
	if m.Inflight() != 0 {
		t.Fatalf("inflight = %d after expunge", m.Inflight())
	}
	chk.AtQuiescence()
	err := chk.Err()
	if err == nil {
		t.Fatal("active-cycle-at-quiescence not caught")
	}
	if !strings.Contains(err.Error(), "still active") {
		t.Fatalf("error %q is not the lost-returns violation", err)
	}
}

func TestCheckerSkipsUnstableSample(t *testing.T) {
	m, _, chk, c := newCheckRig(t, 2)
	m.Spawn(task.Task{Kind: task.Reduce, Dst: 1})
	// Not quiescent: the sample must be skipped, not failed.
	chk.AtQuiescence()
	if err := chk.Err(); err != nil {
		t.Fatalf("non-quiescent sample reported violation: %v", err)
	}
	if c.CheckSkipped.Load() != 1 {
		t.Fatalf("skipped = %d, want 1", c.CheckSkipped.Load())
	}
}

// TestReadJSONLRefusesOtherFormats: a log is replayed exactly or not at
// all. A field this build's Event does not declare — "sweep", the
// incremental-sweep scope earlier builds recorded — is a decision the replay
// could not honour, so the reader refuses the log and says where.
func TestReadJSONLRefusesOtherFormats(t *testing.T) {
	for _, tc := range []struct {
		name, log string
		events    int
		wantErr   []string // substrings of the error; nil = accepted
	}{
		{"current", `{"ev":"meta","program":"fib","pes":4}
{"ev":"cycle","ctx":1,"roots":[{"id":5}]}
{"ev":"restructure","mt":true}
`, 3, nil},
		{"incremental sweep", `{"ev":"meta","program":"fib","pes":4}
{"ev":"restructure","sweep":2}
`, 1, []string{"line 2", `"sweep"`}},
		{"garbage", `{"ev":"meta"}
{"ev":"exec","pe":1}
not json
`, 2, []string{"line 3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := ReadJSONL(strings.NewReader(tc.log))
			if len(events) != tc.events {
				t.Errorf("read %d events, want %d", len(events), tc.events)
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}
