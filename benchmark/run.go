package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dgr"
)

const (
	// setupRepeats is how many times a run sets up from scratch; setup_s is
	// the median, the last set-up is the one measured on. -quick sets up once.
	setupRepeats = 5
	// warmupPasses run at the end of every set-up, so that the store has
	// grown to its working size and the Go heap to its steady state before
	// the first measured op. Over setupRepeats they are about a tenth of the
	// measured passes.
	warmupPasses = 2
	// overrunFactor is the safety valve for a host much slower than the one
	// passesPerSecond was calibrated on: measuring stops at the first pass
	// boundary after overrunFactor x -seconds, so that the driver's total
	// time cap holds. Passes are identical op lists, so per-op numbers keep
	// their meaning; the valve never opens on the calibration host.
	overrunFactor = 1.1
)

// bench is one set-up: the pass's op list and, on the warm workloads, the
// machine every op runs on.
type bench struct {
	w    *workload
	seed int64
	ops  []op
	m    *dgr.Machine // nil on cold-oneshot
}

// setUp does everything that precedes the first measured op: generate the
// inputs, ask the oracle, build the machine, warm up.
func setUp(w *workload, seed int64) (*bench, error) {
	ops, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, ops: ops}
	if !w.cold {
		b.m = dgr.New(w.options(seed))
	}
	for i := 0; i < warmupPasses; i++ {
		b.pass()
	}
	return b, nil
}

func (b *bench) close() {
	if b.m != nil {
		b.m.Close()
	}
}

// eval runs one op: Eval on the warm machine, or New+Eval+Close.
func (b *bench) eval(o *op) (dgr.Value, error) {
	if b.m != nil {
		return b.m.Eval(o.src)
	}
	m := dgr.New(b.w.options(b.seed))
	v, err := m.Eval(o.src)
	m.Close()
	return v, err
}

// pass runs the op list once, in order, and returns how many ops missed
// the oracle's outcome.
func (b *bench) pass() (failed int) {
	for i := range b.ops {
		o := &b.ops[i]
		if v, err := b.eval(o); !o.matches(v, err) {
			failed++
		}
	}
	return failed
}

// result is what one untraced run measured.
type result struct {
	attempted, failed int
	passes            int
	metrics           map[string]float64
	// Raw wall-clock context, printed but not reported as metrics.
	opsPerS, opMSFloor, calMS float64
}

// measure sets up repeats times, then runs a fixed number of passes on the
// last set-up. setup_s is the median set-up.
func measure(w *workload, seed int64, repeats, passes int, limit time.Duration) (*result, error) {
	var b *bench
	setups := make([]float64, repeats)
	for i := range setups {
		if b != nil {
			// Drop the previous set-up before timing the next, so that each
			// starts from the same heap and peak_rss_mb holds one machine.
			b.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer b.close()
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	res := b.run(cal, passes, limit)
	res.metrics["setup_s"] = median(setups)
	return res, nil
}

// run measures passes passes, stopping early only past limit (if any), and
// computes the end-to-end metrics other than setup_s. A calibration slice
// runs before the first pass and after every pass.
func (b *bench) run(cal *calibration, passes int, limit time.Duration) *result {
	durs := make([]float64, 0, passes)
	cals := make([]float64, 1, passes+1)
	failed := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cals[0] = cal.slice().Seconds()
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		failed += b.pass()
		durs = append(durs, time.Since(t0).Seconds())
		cals = append(cals, cal.slice().Seconds())
		if limit > 0 && time.Since(start) > limit {
			break
		}
	}
	runtime.ReadMemStats(&after)

	// A pass in units of the calibration slices on either side of it.
	rel := make([]float64, len(durs))
	for p := range durs {
		rel[p] = durs[p] / ((cals[p] + cals[p+1]) / 2)
	}
	perPass := float64(len(b.ops))
	ops := float64(len(durs)) * perPass
	return &result{
		attempted: int(ops),
		failed:    failed,
		passes:    len(durs),
		opsPerS:   ops / sum(durs),
		opMSFloor: floorMean(durs) * 1e3 / perPass,
		calMS:     median(cals) * 1e3,
		metrics: map[string]float64{
			"op_cal_ratio":    median(rel) / perPass,
			"allocs_per_op":   float64(after.Mallocs-before.Mallocs) / ops,
			"alloc_kb_per_op": float64(after.TotalAlloc-before.TotalAlloc) / ops / 1024,
			"ok_ratio":        (ops - float64(failed)) / ops,
		},
	}
}

// floorMean is the mean of the fastest tenth of xs (at least one). Other
// tenants of the host only ever add time to a pass, so the fast tail
// estimates the cost on a quiet host and repeats far better than the mean.
func floorMean(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := max(1, len(s)/10)
	return mean(s[:n])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
