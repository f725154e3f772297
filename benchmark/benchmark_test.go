package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dgr"
)

func mustInputs(t *testing.T, name string, seed int64) []op {
	t.Helper()
	ops, err := findWorkload(name).inputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestInputsComeFromTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := mustInputs(t, w.name, 7), mustInputs(t, w.name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		c := mustInputs(t, w.name, 8)
		same := 0
		for i := range a {
			if a[i].src == c[i].src {
				same++
			}
		}
		// The two knot programs take no argument.
		if limit := len(a) / 3; same > limit {
			t.Errorf("%s: seeds 7 and 8 share %d of %d sources in place, want at most %d", w.name, same, len(a), limit)
		}
	}
	interp, compiled := mustInputs(t, "eval-interp", 7), mustInputs(t, "eval-compiled", 7)
	if !reflect.DeepEqual(interp, compiled) {
		t.Error("eval-interp and eval-compiled got different inputs from one seed")
	}
}

func TestOracleExpectsBothDeadlocks(t *testing.T) {
	for _, src := range []string{`let x = x + 1 in x`, `let a = b + 1; b = a + 1 in a`} {
		want, err := oracle(src)
		if err != nil || !want.deadlock {
			t.Errorf("oracle(%q) = %+v, %v; want a deadlock", src, want, err)
		}
	}
	w := findWorkload("cold-oneshot")
	deadlocks := 0
	for _, o := range mustInputs(t, w.name, 1) {
		if o.want.deadlock {
			deadlocks++
		}
	}
	if deadlocks != 2*w.rounds {
		t.Errorf("cold-oneshot expects %d deadlocks a pass, want %d", deadlocks, 2*w.rounds)
	}
}

func TestWrongExpectationFailsTheRun(t *testing.T) {
	for _, name := range []string{"eval-compiled", "cold-oneshot"} {
		b, err := setUp(findWorkload(name), 1)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := newCalibration()
		if err != nil {
			t.Fatal(err)
		}
		res := b.run(cal, quickPasses, 0)
		if res.failed != 0 || res.metrics["ok_ratio"] != 1 || failures(res.failed) != nil {
			t.Errorf("%s: clean run: failed=%d ok_ratio=%v", name, res.failed, res.metrics["ok_ratio"])
		}
		// Corrupt one expectation: a value on the first op that has one, and
		// on cold-oneshot also turn one deadlock into a value.
		for i := range b.ops {
			if !b.ops[i].want.deadlock {
				b.ops[i].want.value++
				break
			}
		}
		want := quickPasses
		for i := range b.ops {
			if b.ops[i].want.deadlock {
				b.ops[i].want.deadlock = false
				want += quickPasses
				break
			}
		}
		res = b.run(cal, quickPasses, 0)
		b.close()
		if res.failed != want || res.metrics["ok_ratio"] >= 1 {
			t.Errorf("%s: corrupted run: failed=%d (want %d) ok_ratio=%v", name, res.failed, want, res.metrics["ok_ratio"])
		}
		if failures(res.failed) == nil {
			t.Errorf("%s: corrupted run would exit 0", name)
		}
		var out bytes.Buffer
		if err := emit(&out, endToEndWithout("setup_s"), res.metrics, res.attempted, res.failed); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), `{"correct":false,`) {
			t.Errorf("%s: report line of a corrupted run: %s", name, out.String())
		}
	}
}

func endToEndWithout(name string) []metric {
	var out []metric
	for _, d := range endToEnd {
		if d.Name != name {
			out = append(out, d)
		}
	}
	return out
}

// traceQuick makes a quick traced run and derives the metrics from its span
// file, as the command does.
func traceQuick(t *testing.T, name string) ([]span, map[string]float64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	_, failed, values, err := traceTo(path, findWorkload(name), 1, quickPasses)
	if err != nil || failed != 0 {
		t.Fatalf("%s: traced run: failed=%d err=%v", name, failed, err)
	}
	spans, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	return spans, values
}

func TestTracedRun(t *testing.T) {
	for _, name := range []string{"eval-compiled", "cold-oneshot"} {
		spans, values := traceQuick(t, name)
		for _, d := range perLayer {
			if v, ok := values[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, %v", name, d.Name, v, ok)
			}
		}

		// The child spans of an op account for its wall time.
		covered := map[int]int64{}
		for _, sp := range spans {
			covered[sp.Parent] += sp.End - sp.Start
		}
		var wall, inChildren int64
		for _, sp := range spans {
			if sp.Name == "op" {
				wall += sp.End - sp.Start
				inChildren += covered[sp.ID]
			}
		}
		if share := float64(inChildren) / float64(wall); share < 0.98 || share > 1 {
			t.Errorf("%s: child spans cover %.4f of the ops' wall time, want at least 0.98", name, share)
		}
	}
}

func TestExactCountersRepeat(t *testing.T) {
	const name = "eval-compiled"
	_, a := traceQuick(t, name)
	_, b := traceQuick(t, name)
	for _, key := range exactLayerCounts {
		if a[key] != b[key] {
			t.Errorf("%s: %v then %v on one seed", key, a[key], b[key])
		}
	}
	if a["sched.tasks_per_op"] == 0 || a["gm.reduction_tasks_per_op"] == 0 || a["reduce.reduction_tasks_per_op"] != 0 {
		t.Errorf("implausible counters: %v", a)
	}

	var allocs [2]float64
	for i := range allocs {
		res, err := measure(findWorkload(name), 1, 1, quickPasses, 0)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = res.metrics["allocs_per_op"]
	}
	if rel := math.Abs(allocs[0]-allocs[1]) / allocs[0]; rel > 1e-4 {
		t.Errorf("allocs_per_op %v then %v on one seed (%.2g apart)", allocs[0], allocs[1], rel)
	}
}

func TestMachineOptionsAreTheRunDefaults(t *testing.T) {
	for _, w := range workloads {
		o := w.options(3)
		want := dgr.Options{PEs: 4, Seed: 3, Engine: w.engine, GCInterval: w.gcEvery}
		if !reflect.DeepEqual(o, want) {
			t.Errorf("%s: options %+v", w.name, o)
		}
	}
}

// TestManifest holds the checked-in BENCHMARK.json to the tables in the
// code and to the limits the driver puts on it.
func TestManifest(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, buf.Bytes()) {
		t.Error("BENCHMARK.json is not the output of -manifest; regenerate it")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		if p := int(math.Round(w.passesPerSecond * defaultSeconds)); p < 100 {
			t.Errorf("%s: %d measured passes, want at least 100", w.name, p)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 || !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bound %v unit %q", d.Name, d.Bound, d.Unit)
		}
		hasSetup = hasSetup || d == metric{"setup_s", "s", lower, d.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Bound != 0 || !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bound %v unit %q", d.Name, d.Bound, d.Unit)
		}
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
