// Command dgr-serve runs the multi-tenant serving layer: a pool of
// graph-reduction machines behind an HTTP/JSON API with admission control,
// per-tenant quotas, weighted fair scheduling, and a normal-form memo
// cache. It doubles as the load-test client for that API (-load), which is
// how CI smoke-tests a running server.
//
// Serve:
//
//	dgr-serve -addr :8091 -workers 2 -pes 2 -check
//	curl -s localhost:8091/v1/eval -d '{"tenant":"alice","program":"1+2"}'
//	curl -s localhost:8091/metrics          # pool + per-tenant Prometheus
//	curl -s localhost:8091/debug/serve.json # pool/cache/tenant digest
//
// Load-test a running server (N tenants × M programs, warm rerun):
//
//	dgr-serve -load -url http://127.0.0.1:8091 -tenants 4 -programs 8 \
//	          -rounds 2 -out serve-report.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dgr"
	"dgr/internal/serve"
	"dgr/internal/task"
	"dgr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dgr-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8091", "listen address")
		workers  = flag.Int("workers", 2, "machine-pool size")
		pes      = flag.Int("pes", 2, "processing elements per pooled machine")
		parallel = flag.Bool("parallel", false, "run pooled machines in parallel mode")
		seed     = flag.Int64("seed", 1, "base scheduling seed (worker i uses seed+i)")
		maxSteps = flag.Int("maxsteps", 0, "deterministic step budget per eval (0 = machine default)")
		timeout  = flag.Duration("timeout", 0, "parallel eval timeout (0 = machine default)")
		queue    = flag.Int("queue", 256, "admission queue depth (all tenants)")
		cacheN   = flag.Int("cache", 1024, "memo-cache entries")
		inflight = flag.Int("inflight", 8, "default per-tenant in-flight limit")
		quota    = flag.Int("quota", 0, "default per-tenant vertex quota (0 = 32768)")
		check    = flag.Bool("check", true, "run pooled machines with the invariant checker")
		engine   = flag.String("engine", dgr.EngineInterp, "reduction engine for pooled machines: interp or compiled")
		obsOn    = flag.Bool("obs", false, "enable the observability layer on pooled machines")
		traceR   = flag.Float64("trace-rate", 0, "lineage-trace head-sampling rate (0 disables; 1.0 traces every request)")
		grace    = flag.Duration("grace", 5*time.Second, "drain timeout on shutdown")

		load   = flag.Bool("load", false, "run as load-test client against -url instead of serving")
		url    = flag.String("url", "http://127.0.0.1:8091", "server base URL for -load")
		nTen   = flag.Int("tenants", 4, "-load: concurrent tenants")
		nProg  = flag.Int("programs", 8, "-load: distinct programs per tenant")
		rounds = flag.Int("rounds", 2, "-load: passes over the program list (>1 exercises the warm cache)")
		conc   = flag.Int("concurrency", 2, "-load: parallel streams per tenant")
		out    = flag.String("out", "", "-load: also write the JSON report to this file")
	)
	tenantCfgs := map[string]serve.TenantLimits{}
	flag.Func("tenant",
		"configure a tenant as name=band[:weight] (band: vital|eager|reserve); repeatable",
		func(v string) error {
			name, lim, err := parseTenantFlag(v)
			if err != nil {
				return err
			}
			tenantCfgs[name] = lim
			return nil
		})
	flag.Parse()

	if *load {
		return runLoad(*url, *nTen, *nProg, *rounds, *conc, *out)
	}

	s := serve.New(serve.Options{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheN,
		Machine: dgr.Options{PEs: *pes, Parallel: *parallel, Seed: *seed,
			MaxSteps: *maxSteps, Timeout: *timeout, Check: *check, Obs: *obsOn,
			Engine: *engine, TraceRate: *traceR},
		DefaultLimits: serve.TenantLimits{MaxInflight: *inflight, VertexQuota: *quota},
	})
	defer s.Close()
	for name, lim := range tenantCfgs {
		s.SetTenant(name, lim)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	stopHTTP := serve.StartHTTP(ln, s.Handler(), func(err error) {
		fmt.Fprintln(os.Stderr, "dgr-serve: http:", err)
	})
	fmt.Printf("dgr-serve: %d workers × %d PEs on http://%s (SIGINT to stop)\n",
		*workers, *pes, ln.Addr())

	<-ctx.Done()
	fmt.Println("dgr-serve: shutting down")
	stopHTTP(*grace)
	return nil
}

// parseTenantFlag parses name=band[:weight].
func parseTenantFlag(v string) (string, serve.TenantLimits, error) {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return "", serve.TenantLimits{}, fmt.Errorf("want name=band[:weight], got %q", v)
	}
	bandName, weightStr, hasWeight := strings.Cut(spec, ":")
	lim := serve.TenantLimits{}
	switch bandName {
	case "vital":
		lim.Band = task.BandVital
	case "eager":
		lim.Band = task.BandEager
	case "reserve":
		lim.Band = task.BandReserve
	default:
		return "", lim, fmt.Errorf("unknown band %q (vital|eager|reserve)", bandName)
	}
	if hasWeight {
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 1 {
			return "", lim, fmt.Errorf("bad weight %q", weightStr)
		}
		lim.Weight = w
	}
	return name, lim, nil
}

// loadReport is the -load output document.
type loadReport struct {
	workload.ServeLoadReport
	Server     serve.PoolStats `json:"server"`
	Violations []string        `json:"violations"`
}

// runLoad drives the serveload harness over HTTP and enforces the smoke
// criteria: no transport failures, byte-identical reruns, warm-cache hits
// when rounds > 1, and zero invariant violations server-side.
func runLoad(url string, tenants, programs, rounds, conc int, out string) error {
	c := serve.NewClient(url)
	if err := c.WaitHealthy(15 * time.Second); err != nil {
		return err
	}
	rep, err := workload.RunServeLoad(workload.ServeLoadConfig{
		Tenants:     tenants,
		Programs:    workload.ServePrograms(programs),
		Rounds:      rounds,
		Concurrency: conc,
	}, c)
	if err != nil {
		return fmt.Errorf("load run: %w", err)
	}
	pool, violations, err := c.ServerState()
	if err != nil {
		return fmt.Errorf("fetching server state: %w", err)
	}
	if violations == nil {
		violations = []string{}
	}
	full := loadReport{ServeLoadReport: rep, Server: pool, Violations: violations}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(full); err != nil {
		return err
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		fenc := json.NewEncoder(f)
		fenc.SetIndent("", "  ")
		werr := fenc.Encode(full)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	switch {
	case rep.OK == 0:
		return fmt.Errorf("no request succeeded (%d failed, %d rejected)", rep.Failed, rep.Rejected)
	case rep.Mismatches > 0:
		return fmt.Errorf("%d rerun(s) returned non-identical results", rep.Mismatches)
	case rounds > 1 && rep.CacheHits == 0:
		return fmt.Errorf("warm rounds produced zero memo-cache hits")
	case len(violations) > 0:
		return fmt.Errorf("server reported %d invariant violation(s): %s", len(violations), violations[0])
	}
	fmt.Fprintf(os.Stderr,
		"dgr-serve: load ok — %d requests, %.0f req/s, %d cache hits, 0 violations\n",
		rep.Requests, rep.ReqPerSec, rep.CacheHits)
	return nil
}
