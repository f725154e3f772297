package metrics

import (
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(10)
	c.ReductionTasks.Add(6)
	c.MarkTasks.Add(3)
	c.ReturnTasks.Add(1)
	c.RemoteMessages.Add(2)
	c.Reclaimed.Add(5)
	c.Cycles.Add(1)

	s := c.Snapshot()
	if s.TasksExecuted != 10 || s.ReductionTasks != 6 || s.MarkTasks != 3 ||
		s.ReturnTasks != 1 || s.RemoteMessages != 2 || s.Reclaimed != 5 || s.Cycles != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(10)
	before := c.Snapshot()
	c.TasksExecuted.Add(7)
	c.Expunged.Add(2)
	diff := c.Snapshot().Sub(before)
	if diff.TasksExecuted != 7 || diff.Expunged != 2 {
		t.Fatalf("diff = %+v", diff)
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(5)
	c.Reclaimed.Add(2)
	s := c.Snapshot().String()
	for _, want := range []string{"tasks=5", "reclaimed=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket b = bits.Len64(v) holds values with v < 2^b.
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	h.Observe(1 << 40) // beyond the top bucket: clamped into the last
	s := h.Snapshot()
	if s.Total() != 6 {
		t.Fatalf("total = %d, want 6", s.Total())
	}
	if s[0] != 1 { // 0
		t.Fatalf("bucket 0 = %d, want 1", s[0])
	}
	if s[1] != 1 { // 1
		t.Fatalf("bucket 1 = %d, want 1", s[1])
	}
	if s[2] != 2 { // 2 and 3
		t.Fatalf("bucket 2 = %d, want 2", s[2])
	}
	if s[3] != 1 { // 4
		t.Fatalf("bucket 3 = %d, want 1", s[3])
	}
	if s[HistBuckets-1] != 1 {
		t.Fatalf("top bucket = %d, want 1 (clamped)", s[HistBuckets-1])
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	s := h.Snapshot()
	// Quantiles report the bucket's exclusive upper bound: 1 → "< 2".
	if q := s.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %d, want 2", q)
	}
	// p99 falls in the bucket holding 1000 (2^9 < 1000 <= 2^10).
	if q := s.Quantile(0.99); q != 1024 {
		t.Fatalf("p99 = %d, want 1024", q)
	}
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	if got := empty.String(); got != "-" {
		t.Fatalf("empty String = %q, want -", got)
	}
	if got := s.String(); !strings.Contains(got, "n=100") || !strings.Contains(got, "p50<2") {
		t.Fatalf("String = %q", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	// Empty histogram: any q returns 0.
	var empty HistSnapshot
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	var h Histogram
	h.Observe(0)
	h.Observe(3)
	h.Observe(1000)
	s := h.Snapshot()
	// q=0 clamps the target to 1 observation: the first non-empty bucket's
	// upper edge (0 lives in bucket 0, upper edge 2^0 = 1).
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %d, want 1", got)
	}
	// q=1 must reach the last observation's bucket (1000 → bucket 10, < 1024).
	if got := s.Quantile(1); got != 1024 {
		t.Fatalf("Quantile(1) = %d, want 1024", got)
	}
	// Values clamped into the top bucket are still reachable at q=1.
	var top Histogram
	top.Observe(1 << 62)
	if got := top.Snapshot().Quantile(1); got != int64(1)<<(HistBuckets-1) {
		t.Fatalf("top-bucket Quantile(1) = %d, want %d", got, int64(1)<<(HistBuckets-1))
	}
}

func TestSnapshotCheckFields(t *testing.T) {
	var c Counters
	c.CheckRuns.Add(5)
	c.CheckViolations.Add(1)
	c.CheckSkipped.Add(2)
	before := c.Snapshot()
	if before.CheckRuns != 5 || before.CheckViolations != 1 || before.CheckSkipped != 2 {
		t.Fatalf("snapshot = %+v", before)
	}
	c.CheckRuns.Add(3)
	diff := c.Snapshot().Sub(before)
	if diff.CheckRuns != 3 || diff.CheckViolations != 0 {
		t.Fatalf("diff = %+v", diff)
	}
	s := c.Snapshot().String()
	for _, want := range []string{"check(", "runs=8", "violations=1", "skipped=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	var quiet Counters
	quiet.TasksExecuted.Add(1)
	if s := quiet.Snapshot().String(); strings.Contains(s, "check(") {
		t.Fatalf("String() = %q should omit check section when runs=0", s)
	}
}

func TestHistogramSub(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Observe(5)
	before := h.Snapshot()
	h.Observe(5)
	h.Observe(700)
	d := h.Snapshot().Sub(before)
	if d.Total() != 2 {
		t.Fatalf("delta total = %d, want 2", d.Total())
	}
}

// TestCountersDiff: the interval between two snapshots of one counter set,
// histogram included, and the zero interval against itself.
func TestCountersDiff(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(10)
	c.FabricLatency.Observe(5)
	prev := c.Snapshot()
	c.TasksExecuted.Add(4)
	c.Reclaimed.Add(2)
	c.FabricLatency.Observe(5)
	c.FabricLatency.Observe(9000)
	d := c.Snapshot().Sub(prev)
	if d.TasksExecuted != 4 || d.Reclaimed != 2 {
		t.Fatalf("Diff = %+v", d)
	}
	if d.FabricLatency.Total() != 2 {
		t.Fatalf("Diff latency total = %d, want 2", d.FabricLatency.Total())
	}
	// The interval against a fresh snapshot of itself is zero everywhere.
	if z := c.Snapshot().Sub(c.Snapshot()); z != (Snapshot{}) {
		t.Fatalf("self-diff = %+v", z)
	}
}

// TestHistogramMerge: Snapshot.Add merges two machines' latency histograms
// exactly (log2 buckets add), which is how a pool reports one histogram.
func TestHistogramMerge(t *testing.T) {
	var a, b Counters
	a.FabricLatency.Observe(1)
	a.FabricLatency.Observe(100)
	b.FabricLatency.Observe(1)
	b.FabricLatency.Observe(1)
	b.FabricLatency.Observe(5000)
	m := a.Snapshot().Add(b.Snapshot()).FabricLatency
	if m.Total() != 5 {
		t.Fatalf("merged total = %d, want 5", m.Total())
	}
	// Bucket contents add exactly: value 1 lives in bucket 1.
	if m[1] != 3 {
		t.Fatalf("merged bucket 1 = %d, want 3", m[1])
	}
	// Merging is commutative and the identity is the zero snapshot.
	if b.Snapshot().Add(a.Snapshot()).FabricLatency != m {
		t.Fatal("merge not commutative")
	}
	if a.Snapshot().Add(Snapshot{}) != a.Snapshot() {
		t.Fatal("zero is not the merge identity")
	}
	// Quantiles over the merged set see both populations.
	if q := m.Quantile(1); q < 5000 {
		t.Fatalf("merged p100 = %d, want ≥ 5000's bucket bound", q)
	}
}

func TestSnapshotFabricFields(t *testing.T) {
	var c Counters
	c.FabricSent.Add(9)
	c.FabricDelivered.Add(7)
	c.FabricBatches.Add(3)
	c.FabricDropped.Add(2)
	c.FabricRetries.Add(2)
	c.FabricDuplicates.Add(1)
	c.FabricAcksDropped.Add(1)
	c.FabricExpunged.Add(2)
	c.FabricLatency.Observe(4)
	before := c.Snapshot()
	if before.FabricSent != 9 || before.FabricDelivered != 7 || before.FabricBatches != 3 ||
		before.FabricDropped != 2 || before.FabricRetries != 2 || before.FabricDuplicates != 1 ||
		before.FabricAcksDropped != 1 || before.FabricExpunged != 2 {
		t.Fatalf("snapshot = %+v", before)
	}
	if before.FabricLatency.Total() != 1 {
		t.Fatalf("latency total = %d, want 1", before.FabricLatency.Total())
	}
	c.FabricSent.Add(11)
	c.FabricLatency.Observe(4)
	c.FabricLatency.Observe(4)
	diff := c.Snapshot().Sub(before)
	if diff.FabricSent != 11 || diff.FabricDelivered != 0 {
		t.Fatalf("diff = %+v", diff)
	}
	if diff.FabricLatency.Total() != 2 {
		t.Fatalf("latency delta = %d, want 2", diff.FabricLatency.Total())
	}
	s := c.Snapshot().String()
	for _, want := range []string{"fabric(", "sent=20", "delivered=7", "dropped=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSnapshotStringOmitsFabricWhenUnused(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(1)
	if s := c.Snapshot().String(); strings.Contains(s, "fabric(") {
		t.Fatalf("String() = %q should omit fabric section when sent=0", s)
	}
}

// fillCounters sets counter i to i+1 and puts i+1 observations in latency
// bucket i, so every field of a snapshot has a distinct, known value.
func fillCounters(c *Counters) {
	cv := reflect.ValueOf(c).Elem()
	for i, d := range CounterSeries() {
		cv.Field(d.Index).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	for b := range c.FabricLatency.buckets {
		c.FabricLatency.buckets[b].Store(int64(b + 1))
	}
}

// TestCountersDeclaredOnce holds the declaration the walkers rely on:
// Counters and Snapshot list the same counters in the same order, every one
// is tagged with a well-formed, unique series name and a help line, and the
// three walkers are right in every field — not in the ones a test happened
// to name.
func TestCountersDeclaredOnce(t *testing.T) {
	ct, st := reflect.TypeOf(Counters{}), reflect.TypeOf(Snapshot{})
	// Counters' one field past Snapshot's is pes, the PEs' shares.
	if ct.NumField() != st.NumField()+1 || ct.Field(st.NumField()).Name != "pes" {
		t.Fatalf("Counters has %d fields, Snapshot %d, and the last is not pes", ct.NumField(), st.NumField())
	}
	series := CounterSeries()
	if len(series) != st.NumField()-1 {
		t.Fatalf("%d tagged counters among Snapshot's %d fields; only FabricLatency may go untagged", len(series), st.NumField())
	}
	name := regexp.MustCompile(`^dgr_[a-z_]+_total$`)
	seen := map[string]string{}
	for i := 0; i < st.NumField(); i++ {
		cf, sf := ct.Field(i), st.Field(i)
		if cf.Name != sf.Name {
			t.Fatalf("field %d: Counters.%s vs Snapshot.%s — the two structs must list the counters in the same order", i, cf.Name, sf.Name)
		}
		if sf.Name == "FabricLatency" {
			if cf.Type != reflect.TypeOf(Histogram{}) || sf.Type != reflect.TypeOf(HistSnapshot{}) {
				t.Fatalf("FabricLatency is %v / %v", cf.Type, sf.Type)
			}
			continue
		}
		if cf.Type != reflect.TypeOf(atomic.Int64{}) || sf.Type.Kind() != reflect.Int64 {
			t.Fatalf("%s is %v / %v, want atomic.Int64 / int64", sf.Name, cf.Type, sf.Type)
		}
		prom, help := sf.Tag.Get("prom"), sf.Tag.Get("help")
		if !name.MatchString(prom) {
			t.Errorf("%s: series name %q does not match %v", sf.Name, prom, name)
		}
		if help == "" {
			t.Errorf("%s: no help text", sf.Name)
		}
		if other, dup := seen[prom]; dup {
			t.Errorf("%s and %s share the series name %q", other, sf.Name, prom)
		}
		seen[prom] = sf.Name
	}

	var c Counters
	fillCounters(&c)
	s := c.Snapshot()
	sum := s.Add(s)
	back := sum.Sub(s)
	sv, sumv := reflect.ValueOf(s), reflect.ValueOf(sum)
	for i, d := range series {
		want := int64(i + 1)
		if got := sv.Field(d.Index).Int(); got != want {
			t.Errorf("Snapshot().%s = %d, want %d", d.Field, got, want)
		}
		if got := sumv.Field(d.Index).Int(); got != 2*want {
			t.Errorf("s.Add(s).%s = %d, want %d", d.Field, got, 2*want)
		}
	}
	for b := range s.FabricLatency {
		if s.FabricLatency[b] != int64(b+1) || sum.FabricLatency[b] != 2*int64(b+1) {
			t.Errorf("latency bucket %d: snapshot %d, sum %d", b, s.FabricLatency[b], sum.FabricLatency[b])
		}
	}
	if back != s {
		t.Errorf("s.Add(s).Sub(s) != s:\n got %+v\nwant %+v", back, s)
	}
	t.Logf("census: %d counters declared", len(series))
}

var sinkSnapshot Snapshot

// TestSnapshotAllocFree: the walkers run on every Stats call, every pool
// aggregation and every traced benchmark op; reflection must not make them
// allocate.
func TestSnapshotAllocFree(t *testing.T) {
	var c Counters
	fillCounters(&c)
	s := c.Snapshot()
	for name, f := range map[string]func(){
		"Snapshot": func() { sinkSnapshot = c.Snapshot() },
		"Add":      func() { sinkSnapshot = s.Add(s) },
		"Sub":      func() { sinkSnapshot = s.Sub(s) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// TestSnapshotConcurrent reads the counters while other goroutines bump
// them (run under -race in CI): every read is of an atomic, and successive
// snapshots never run backwards.
func TestSnapshotConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.TasksExecuted.Add(1)
					c.FabricLatency.Observe(3)
				}
			}
		}()
	}
	prev := c.Snapshot()
	for i := 0; i < 200; i++ {
		s := c.Snapshot()
		if d := s.Sub(prev); d.TasksExecuted < 0 || d.FabricLatency.Total() < 0 {
			t.Errorf("snapshot ran backwards: %+v", d)
			break
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotAddsPEShares: a share is one cache line, and Snapshot adds
// every counter of each PE's share to the counter of its name, beside what
// was added without a PE, still without allocating; Executed reads the same.
func TestSnapshotAddsPEShares(t *testing.T) {
	if n := reflect.TypeOf(PE{}).Size(); n != 64 {
		t.Errorf("PE is %d bytes, want 64", n)
	}
	var c Counters
	pes := c.PEs(3)
	c.MarkTasks.Add(1)
	pes[0].MarkTasks.Add(2)
	pes[2].MarkTasks.Add(4)
	pes[1].RemoteMessages.Add(8)
	pes[2].TasksExecuted.Add(16)
	s := c.Snapshot()
	if s.MarkTasks != 7 || s.RemoteMessages != 8 || s.TasksExecuted != 16 || s.LocalMessages != 0 {
		t.Errorf("snapshot mark=%d remote=%d executed=%d local=%d, want 7/8/16/0",
			s.MarkTasks, s.RemoteMessages, s.TasksExecuted, s.LocalMessages)
	}
	pt := reflect.TypeOf(PE{})
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		if f.Name == "_" {
			continue
		}
		reflect.ValueOf(&pes[1]).Elem().Field(i).Addr().Interface().(*atomic.Int64).Add(100)
		now := c.Snapshot()
		if got := reflect.ValueOf(now.Sub(s)).FieldByName(f.Name).Int(); got != 100 {
			t.Errorf("PE.%s: the snapshot moved by %d, want 100", f.Name, got)
		}
		if red, mark, ret := c.Executed(); red != now.ReductionTasks || mark != now.MarkTasks || ret != now.ReturnTasks {
			t.Errorf("PE.%s moved: Executed reads %d/%d/%d, the snapshot %d/%d/%d",
				f.Name, red, mark, ret, now.ReductionTasks, now.MarkTasks, now.ReturnTasks)
		}
		reflect.ValueOf(&pes[1]).Elem().Field(i).Addr().Interface().(*atomic.Int64).Add(-100)
	}
	if n := testing.AllocsPerRun(100, func() { sinkSnapshot = c.Snapshot() }); n != 0 {
		t.Errorf("Snapshot with PE shares allocates %v times per call, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("a second PEs call on one Counters did not panic")
		}
	}()
	c.PEs(1)
}
