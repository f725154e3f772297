package dgr

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dgr/internal/fabric"
	"dgr/internal/obs"
	"dgr/internal/workload"
)

// lossyFabricOpts is the standard "hostile network" configuration used by
// the integration tests: every cross-partition spawn rides a batched link
// with 10% transmission loss, latency, jitter, and reordering.
func lossyFabricOpts(seed int64) Options {
	return Options{
		PEs:  4,
		Seed: seed,
		Fabric: &fabric.Params{
			BatchSize:   8,
			FlushEvery:  20 * time.Microsecond,
			LinkLatency: 5 * time.Microsecond,
			Jitter:      3 * time.Microsecond,
			DropRate:    0.10,
			ReorderRate: 0.10,
		},
	}
}

// TestFabricCorpus is the tentpole acceptance check: with the fabric
// enabled at a 10% drop rate, every seed program must still evaluate to
// exactly its reference value — the at-least-once retry plus receiver
// dedup makes the lossy network semantically invisible.
func TestFabricCorpus(t *testing.T) {
	var sent, delivered, expunged, dropped int64
	for name, p := range workload.Programs {
		t.Run(name, func(t *testing.T) {
			m := New(lossyFabricOpts(11))
			defer m.Close()
			v, err := m.Eval(p.Src)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int != p.Want {
				t.Fatalf("%s = %v, want %d", name, v, p.Want)
			}
			if !m.Quiescent() {
				t.Fatal("machine not quiescent after Eval")
			}
			s := m.Stats()
			// Conservation: every task handed to the fabric was either
			// delivered to a pool or expunged as irrelevant — none lost.
			if s.FabricSent != s.FabricDelivered+s.FabricExpunged {
				t.Fatalf("fabric lost tasks: sent=%d delivered=%d expunged=%d",
					s.FabricSent, s.FabricDelivered, s.FabricExpunged)
			}
			sent += s.FabricSent
			delivered += s.FabricDelivered
			expunged += s.FabricExpunged
			dropped += s.FabricDropped
		})
	}
	if sent == 0 {
		t.Fatal("corpus produced no cross-partition traffic")
	}
	if dropped == 0 {
		t.Fatal("10% drop rate injected no loss across the corpus")
	}
	t.Logf("corpus fabric traffic: sent=%d delivered=%d expunged=%d dropped=%d",
		sent, delivered, expunged, dropped)
}

// TestFabricDeterministicReproducible: the fabric's latency, jitter, loss,
// and reordering all come from seeded RNGs, so two deterministic runs with
// the same seed must produce byte-identical counter snapshots.
func TestFabricDeterministicReproducible(t *testing.T) {
	run := func() Stats {
		m := New(lossyFabricOpts(23))
		defer m.Close()
		v, err := m.Eval(workload.Programs["fib"].Src)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int != workload.Programs["fib"].Want {
			t.Fatalf("fib = %v", v)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged under fabric:\n a=%+v\n b=%+v", a, b)
	}
	if a.FabricDropped == 0 {
		t.Fatal("expected injected loss at 10% drop")
	}
}

// TestFabricParallelEval runs the full parallel machine — PE goroutines,
// background collector, and the fabric's own pump — under 5% loss.
func TestFabricParallelEval(t *testing.T) {
	m := New(Options{
		PEs:      4,
		Parallel: true,
		Fabric: &fabric.Params{
			BatchSize:   8,
			FlushEvery:  100 * time.Microsecond,
			LinkLatency: 20 * time.Microsecond,
			DropRate:    0.05,
		},
		Timeout: 2 * time.Minute,
	})
	defer m.Close()
	p := workload.Programs["fib"]
	v, err := m.Eval(p.Src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != p.Want {
		t.Fatalf("fib = %v, want %d", v, p.Want)
	}
	// Eval returns as soon as the value is ready; stragglers may still be
	// in flight. Close empties the fabric's custody, after which the
	// conservation law must hold exactly.
	m.Close()
	s := m.Stats()
	if s.FabricSent == 0 {
		t.Fatal("parallel eval produced no fabric traffic")
	}
	if s.FabricSent != s.FabricDelivered+s.FabricExpunged {
		t.Fatalf("fabric lost tasks: sent=%d delivered=%d expunged=%d",
			s.FabricSent, s.FabricDelivered, s.FabricExpunged)
	}
}

// TestFabricTraceJSONL evaluates under a lossy fabric with an event log
// attached and checks the event reader's JSONL is well-formed and includes
// the fabric message lifecycle.
func TestFabricTraceJSONL(t *testing.T) {
	opts := lossyFabricOpts(9)
	opts.TraceSink = obs.NewTraceSink(1<<19, 0) // room for 1<<16 events
	m := New(opts)
	defer m.Close()
	if _, err := m.Eval(workload.Programs["tak"].Src); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteFlightJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e struct {
			TS   int64  `json:"ts"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if e.TS <= 0 {
			t.Fatalf("event without a clock stamp: %q", sc.Text())
		}
		kinds[e.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fab.flush", "fab.deliver", "fab.drop"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in trace: %v", k, kinds)
		}
	}

	m2 := New(Options{PEs: 2})
	defer m2.Close()
	if err := m2.WriteFlightJSONL(&buf); err == nil {
		t.Fatal("WriteFlightJSONL should error with no log attached")
	}
}
