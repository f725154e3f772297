package main

import "slices"

// metric describes one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are measured by the untraced run, identically on every workload.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"op_cal_ratio", "ratio", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.01},
	{"alloc_kb_per_op", "KB", lower, 0.01},
	{"ok_ratio", "ratio", higher, 0.001},
}

// perLayer are derived from the span file of the traced run. A metric that
// does not apply to a workload (reduce.* on the compiled engine, the
// verdict time where nothing deadlocks) reads 0 there.
var perLayer = []metric{
	{"dgr.op_ms_p50", "ms", lower, 0},
	{"dgr.op_ms_p95", "ms", lower, 0},
	{"dgr.op_samples", "count", higher, 0},
	{"dgr.new_ms", "ms", lower, 0},
	{"dgr.new_alloc_kb", "KB", lower, 0},
	{"dgr.new_allocs", "count", lower, 0},
	{"dgr.close_ms", "ms", lower, 0},
	{"dgr.compile_ms_per_op", "ms", lower, 0},
	{"dgr.evalnode_ms_per_op", "ms", lower, 0},
	{"lang.parse_us_per_prog", "us", lower, 0},
	{"lang.combcompile_us_per_prog", "us", lower, 0},
	{"lang.lift_us_per_prog", "us", lower, 0},
	{"lang.gmcompile_us_per_prog", "us", lower, 0},
	{"graph.newstore_ms", "ms", lower, 0},
	{"graph.newstore_alloc_kb", "KB", lower, 0},
	{"graph.alloc_release_ns", "ns", lower, 0},
	{"graph.vertex_allocs_per_op", "count", lower, 0},
	{"graph.reclaimed_per_op", "count", higher, 0},
	{"graph.store_vertices_end", "count", lower, 0},
	{"graph.live_vertices_peak", "count", lower, 0},
	{"task.push_pop_ns", "ns", lower, 0},
	{"sched.tasks_per_op", "count", lower, 0},
	{"sched.local_msgs_per_op", "count", lower, 0},
	{"sched.remote_msgs_per_op", "count", lower, 0},
	{"sched.ns_per_task", "ns", lower, 0},
	{"reduce.reduction_tasks_per_op", "count", lower, 0},
	{"reduce.rewrites_per_op", "count", lower, 0},
	{"reduce.ns_per_reduction", "ns", lower, 0},
	{"gm.reduction_tasks_per_op", "count", lower, 0},
	{"gm.ns_per_reduction", "ns", lower, 0},
	{"core.cycles_per_op", "count", lower, 0},
	{"core.mt_runs_per_op", "count", lower, 0},
	{"core.mark_tasks_per_op", "count", lower, 0},
	{"core.return_tasks_per_op", "count", lower, 0},
	{"core.expunged_per_op", "count", lower, 0},
	{"core.marks_per_live_vertex_per_cycle", "ratio", lower, 0},
	{"core.collect_share", "ratio", lower, 0},
	{"core.cycle_ms_p50", "ms", lower, 0},
	{"core.reclaimed_per_cycle", "count", higher, 0},
	{"core.verdict_ms_p50", "ms", lower, 0},
	{"proc.ops_per_s", "1/s", higher, 0},
	{"proc.op_ms_floor", "ms", lower, 0},
	{"proc.calibration_ms", "ms", lower, 0},
	{"proc.cpu_ms_per_op", "ms", lower, 0},
	{"proc.go_gc_cycles_per_op", "count", lower, 0},
	{"proc.peak_rss_mb", "MB", lower, 0},
	{"proc.ambient_over_floor", "ratio", lower, 0},
	{"proc.trace_overhead_ratio", "ratio", lower, 0},
}

// spanSet answers the questions layerMetrics asks of a span file.
type spanSet struct {
	byName map[string][]*span
	byID   map[int]*span
}

func index(spans []span) *spanSet {
	s := &spanSet{byName: map[string][]*span{}, byID: map[int]*span{}}
	for i := range spans {
		sp := &spans[i]
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		s.byID[sp.ID] = sp
	}
	return s
}

// ms lists the durations of the named spans that keep passes.
func (s *spanSet) ms(name string, keep func(*span) bool) []float64 {
	var out []float64
	for _, sp := range s.byName[name] {
		if keep == nil || keep(sp) {
			out = append(out, sp.ms())
		}
	}
	return out
}

// count sums one count over the named spans.
func (s *spanSet) count(name, key string) float64 {
	var sum float64
	for _, sp := range s.byName[name] {
		sum += float64(sp.N[key])
	}
	return sum
}

// ratio is a/b, and 0 where the metric does not apply (b is 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// passEvalMS sums, pass by pass, the EvalNode spans under the named pass
// spans: the time a pass spends reducing and collecting, front end and
// machine construction left out.
func (s *spanSet) passEvalMS(pass, eval string) []float64 {
	at := map[int]int{}
	for i, sp := range s.byName[pass] {
		at[sp.ID] = i
	}
	out := make([]float64, len(at))
	for _, sp := range s.byName[eval] {
		out[at[s.byID[sp.Parent].Parent]] += sp.ms()
	}
	return out
}

// layerMetrics derives every per-layer metric from the spans of one traced
// run.
func layerMetrics(spans []span) map[string]float64 {
	s := index(spans)
	ops := float64(len(s.byName["op"]))
	opMS := s.ms("op", nil)
	passMS := s.ms("pass", nil)
	evalMS := sum(s.ms("dgr.EvalNode", nil))
	twinEvalMS := sum(s.ms("twin.dgr.EvalNode", nil))
	// avg is a count's mean over the named spans.
	avg := func(name, key string) float64 { return ratio(s.count(name, key), float64(len(s.byName[name]))) }

	m := map[string]float64{
		"dgr.op_ms_p50":          median(opMS),
		"dgr.op_ms_p95":          quantile(opMS, 0.95),
		"dgr.op_samples":         ops,
		"dgr.new_ms":             mean(s.ms("dgr.New", nil)),
		"dgr.new_alloc_kb":       avg("dgr.New", "bytes") / 1024,
		"dgr.new_allocs":         avg("dgr.New", "allocs"),
		"dgr.close_ms":           mean(s.ms("dgr.Close", nil)),
		"dgr.compile_ms_per_op":  sum(s.ms("dgr.Compile", nil)) / ops,
		"dgr.evalnode_ms_per_op": evalMS / ops,

		"lang.parse_us_per_prog":       mean(s.ms("lang.Parse", nil)) * 1e3,
		"lang.combcompile_us_per_prog": mean(s.ms("lang.CompileString", nil)) * 1e3,
		"lang.lift_us_per_prog":        mean(s.ms("lang.Lift", nil)) * 1e3,
		"lang.gmcompile_us_per_prog":   mean(s.ms("lang.CompileLifted", nil)) * 1e3,

		"graph.newstore_ms":       mean(s.ms("graph.NewStore", nil)),
		"graph.newstore_alloc_kb": avg("graph.NewStore", "bytes") / 1024,
		"graph.alloc_release_ns":  sum(s.ms("graph.AllocRelease", nil)) * 1e6 / s.count("graph.AllocRelease", "pairs"),
		"task.push_pop_ns":        sum(s.ms("task.PushPop", nil)) * 1e6 / s.count("task.PushPop", "pairs"),

		"sched.ns_per_task": evalMS * 1e6 / s.count("op", "sched.tasks"),

		// The engine's cost per reduction task comes from the twin, where no
		// collector cycle shares the eval.
		"reduce.ns_per_reduction": ratio(twinEvalMS*1e6, s.count("twin.op", "reduce.reduction_tasks")),
		"gm.ns_per_reduction":     ratio(twinEvalMS*1e6, s.count("twin.op", "gm.reduction_tasks")),

		// Floors, not sums: the two machines ran at different moments, and a
		// slow spell of the host on one side would read as collector cost.
		"core.collect_share": 1 - floorMean(s.passEvalMS("twin.pass", "twin.dgr.EvalNode"))/
			floorMean(s.passEvalMS("pass", "dgr.EvalNode")),
		"core.cycle_ms_p50":        medianOr0(s.ms("dgr.RunGC", nil)),
		"core.reclaimed_per_cycle": avg("dgr.RunGC", "reclaimed"),
		"core.verdict_ms_p50": medianOr0(s.ms("dgr.EvalNode", func(sp *span) bool {
			return s.byID[sp.Parent].N["deadlock"] == 1
		})),

		// Raw wall-clock numbers: context, too unsteady on a shared host to
		// carry a bound (see README).
		"proc.ops_per_s":            ops / sum(passMS) * 1e3,
		"proc.op_ms_floor":          floorMean(passMS) * float64(len(passMS)) / ops,
		"proc.calibration_ms":       median(s.ms("calibration", nil)),
		"proc.cpu_ms_per_op":        s.count("pass", "cpu_ns") / 1e6 / ops,
		"proc.go_gc_cycles_per_op":  s.count("pass", "go_gc") / ops,
		"proc.peak_rss_mb":          s.count("run.end", "vm_hwm_kb") / 1024,
		"proc.ambient_over_floor":   mean(passMS) / floorMean(passMS),
		"proc.trace_overhead_ratio": floorMean(passMS) / floorMean(s.ms("ref.pass", nil)),
	}
	for _, key := range []string{
		"graph.vertex_allocs", "graph.reclaimed",
		"sched.tasks", "sched.local_msgs", "sched.remote_msgs",
		"reduce.reduction_tasks", "reduce.rewrites", "gm.reduction_tasks",
		"core.cycles", "core.mt_runs", "core.mark_tasks", "core.return_tasks", "core.expunged",
	} {
		m[key+"_per_op"] = s.count("op", key) / ops
	}

	var live []float64
	for _, sp := range s.byName["op"] {
		live = append(live, float64(sp.N["graph.live_vertices"]))
		m["graph.store_vertices_end"] = float64(sp.N["graph.store_vertices"])
	}
	m["graph.live_vertices_peak"] = slices.Max(live)
	// Visits per cycle against |R| (Fan et al.): marks a cycle executes for
	// each vertex it finds live.
	m["core.marks_per_live_vertex_per_cycle"] = ratio(s.count("op", "core.mark_tasks"),
		s.count("op", "core.cycles")*mean(live))
	return m
}
