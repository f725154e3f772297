package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dgr"
	"dgr/internal/fabric"
	"dgr/internal/obs"
)

// machineExposition is one machine's /metrics text with every conditional
// family showing: obs on, and a fabric that carried traffic (a small store,
// so partition 0's free list spills and spawns cross partitions).
func machineExposition(t *testing.T) string {
	t.Helper()
	m := dgr.New(dgr.Options{PEs: 4, Seed: 1, Fabric: &fabric.Params{}, Obs: true,
		GCInterval: 2000}) // so the eval collects and the marking counters move
	defer m.Close()
	if v, err := m.Eval(fibSrc); err != nil || v.Int != 144 {
		t.Fatalf("fib 12 = %v, %v", v, err)
	}
	if m.Stats().FabricSent == 0 {
		t.Fatal("no fabric traffic: the Fabric* families would not show")
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// serveExposition is the pool's /metrics text as the HTTP handler renders it.
func serveExposition(t *testing.T, s *Server) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, s.promData()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// twoTenantServer has served one traced request for each of two tenants, so
// every tenant family, the exemplar included, is in its exposition.
func twoTenantServer(t *testing.T) *Server {
	t.Helper()
	s := newTestServer(t, Options{Workers: 1, Machine: dgr.Options{TraceRate: 1}})
	for _, tenant := range []string{"alice", "bob"} {
		mustEval(t, s, tenant, "6 * 7", StatusDone)
	}
	return s
}

func mustEval(t *testing.T, s *Server, tenant, program, want string) {
	t.Helper()
	j, err := s.Submit(Request{Tenant: tenant, Program: program})
	if err != nil {
		t.Fatalf("submit %q: %v", program, err)
	}
	if v, _ := j.Wait(context.Background()); v.Status != want {
		t.Fatalf("%q finished %+v, want status %s", program, v, want)
	}
}

// familyLines is the sorted set of "# HELP" and "# TYPE" lines of an
// exposition: which series exist, of what type, described how.
func familyLines(expo string) []string {
	set := map[string]bool{}
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "# ") {
			set[line] = true
		}
	}
	out := make([]string, 0, len(set))
	for line := range set {
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// TestExpositionSeries pins the series set. The two lists under testdata/
// were generated by this file's helpers at the commit before the exposition
// became a walk over the counters' declaration (PR 19's hand lists): nothing
// gained, nothing lost, nothing retyped, help texts byte-identical. Order is
// free. A new series is one line added to a list, on purpose.
func TestExpositionSeries(t *testing.T) {
	for file, expo := range map[string]string{
		"testdata/series_machine.txt": machineExposition(t),
		"testdata/series_serve.txt":   serveExposition(t, twoTenantServer(t)),
	} {
		golden, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSpace(string(golden)), "\n")
		got := familyLines(expo)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: exposition families differ\n got:\n%s\nwant:\n%s",
				file, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		t.Logf("census: %s holds %d series", file, len(got)/2)
	}
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition checks expo line by line against a strict grammar of the
// Prometheus text format 0.0.4 and returns each series' value and each
// family's type. Stricter than a scraper where a scraper's leniency would
// hide a mistake: HELP and TYPE must both precede a family's first sample, no
// series may repeat, and a counter's name must end in _total.
func parseExposition(t *testing.T, expo string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples, types = map[string]float64{}, map[string]string{}
	helped := map[string]bool{}
	if !strings.HasSuffix(expo, "\n") {
		t.Error("exposition does not end in a newline")
	}
	for n, line := range strings.Split(strings.TrimSuffix(expo, "\n"), "\n") {
		bad := func(format string, args ...any) {
			t.Helper()
			t.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			switch {
			case len(f) != 4 || f[3] == "" || (f[1] != "HELP" && f[1] != "TYPE"):
				bad("want `# HELP name text` or `# TYPE name kind`")
			case !metricNameRE.MatchString(f[2]):
				bad("bad metric name %q", f[2])
			case f[1] == "HELP":
				if helped[f[2]] {
					bad("second HELP for %s", f[2])
				}
				helped[f[2]] = true
			default:
				if _, dup := types[f[2]]; dup {
					bad("second TYPE for %s", f[2])
				}
				if f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
					bad("unknown type %q", f[3])
				}
				if (f[3] == "counter") != strings.HasSuffix(f[2], "_total") {
					bad("exactly the counters end in _total")
				}
				types[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			bad("no value")
			continue
		}
		series, value := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			bad("value: %v", err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
			if msg := checkLabels(labels); msg != "" {
				bad("labels: %s", msg)
			}
		}
		if !metricNameRE.MatchString(name) {
			bad("bad metric name %q", name)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_count", "_sum"} {
			if base := strings.TrimSuffix(name, suffix); types[base] == "histogram" {
				family = base
			}
		}
		if types[family] == "" || !helped[family] {
			bad("sample before the HELP and TYPE of %s", family)
		}
		if _, dup := samples[series]; dup {
			bad("duplicate series")
		}
		samples[series] = v
	}
	return samples, types
}

// checkLabels parses `{name="value",…}`, allowing exactly the escapes the
// format defines inside a value: \\, \" and \n.
func checkLabels(s string) string {
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return "not enclosed in braces"
	}
	s = s[1 : len(s)-1]
	for first := true; s != ""; first = false {
		if !first {
			if s[0] != ',' {
				return "missing comma"
			}
			s = s[1:]
		}
		eq := strings.Index(s, `="`)
		if eq < 0 || !labelNameRE.MatchString(s[:eq]) {
			return "bad label name"
		}
		s = s[eq+2:]
		closed := false
		for i := 0; i < len(s) && !closed; i++ {
			switch s[i] {
			case '\\':
				i++
				if i == len(s) || !strings.ContainsRune(`\"n`, rune(s[i])) {
					return "escape other than \\\\, \\\" or \\n in a label value"
				}
			case '\n':
				return "raw newline in a label value"
			case '"':
				s, closed = s[i+1:], true
			}
		}
		if !closed {
			return "unterminated label value"
		}
	}
	return ""
}

// TestExpositionWellFormed parses both expositions under the strict grammar
// — the serving one after hostile tenant names arrived both ways a name can:
// in requests, which must be refused before they create a tenant (a label,
// and state that is never dropped), and from the operator through SetTenant,
// which is trusted and therefore must be escaped on the way out.
func TestExpositionWellFormed(t *testing.T) {
	// Marks that ran as tasks are a subset of the mark bodies that ran.
	marking, _ := parseExposition(t, machineExposition(t))
	if tasks, visits := marking["dgr_mark_tasks_total"], marking["dgr_mark_visits_total"]; tasks == 0 || visits < tasks {
		t.Errorf("dgr_mark_tasks_total %v, dgr_mark_visits_total %v: want 0 < tasks <= visits", tasks, visits)
	}

	s, ts := newHTTPServer(t)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"tenant":"ev\til -%d","program":"1 +"}`, i)
		resp, data := postEval(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), CodeBadRequest) {
			t.Fatalf("hostile tenant: status %d body %s, want 400 %s", resp.StatusCode, data, CodeBadRequest)
		}
	}
	for _, name := range []string{strings.Repeat("a", 65), "a b", "é", `a"b`} {
		if _, err := s.Submit(Request{Tenant: name, Program: "1 + 1"}); err == nil {
			t.Errorf("tenant name %q was admitted", name)
		}
	}
	if n := s.Stats().Tenants; n != 0 {
		t.Fatalf("%d tenants exist after only rejected names", n)
	}
	parseExposition(t, serveExposition(t, s))

	s.SetTenant("we\"ird\\ten\nant", TenantLimits{})
	mustEval(t, s, "", "1 + 1", StatusDone)                      // the anonymous tenant
	mustEval(t, s, strings.Repeat("a", 64), "1 + 2", StatusDone) // the longest legal name
	samples, _ := parseExposition(t, serveExposition(t, s))
	for _, series := range []string{
		`dgr_tenant_requests_total{tenant="we\"ird\\ten\nant"}`,
		`dgr_tenant_requests_total{tenant="anonymous"}`,
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("exposition lacks %s", series)
		}
	}
}

// TestPoolCountersMonotonic: a failed evaluation recycles the worker's
// machine, and the pool's counters must not restart with it — no
// counter-typed series on /metrics, and no machine total, may decrease.
func TestPoolCountersMonotonic(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	mustEval(t, s, "a", fibSrc, StatusDone)
	before, types := parseExposition(t, serveExposition(t, s))
	tasks := s.Stats().Machine.TasksExecuted
	if tasks == 0 {
		t.Fatal("fib 12 executed no tasks")
	}

	mustEval(t, s, "a", "let x = x + 1 in x", StatusFailed)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Recycles != 1 { // the job completes before the worker swaps machines
		if time.Now().After(deadline) {
			t.Fatalf("recycles = %d, want 1", s.Stats().Recycles)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := s.Stats().Machine.TasksExecuted; got < tasks {
		t.Errorf("Stats().Machine.TasksExecuted fell from %d to %d across a recycle", tasks, got)
	}
	after, _ := parseExposition(t, serveExposition(t, s))
	for series, was := range before {
		family := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			family = series[:i]
		}
		if now, ok := after[series]; types[family] == "counter" && (!ok || now < was) {
			t.Errorf("counter %s fell from %v to %v (present: %v) across a recycle", series, was, now, ok)
		}
	}
}
