package serve

import (
	"regexp"

	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/task"
)

// TenantLimits configures one tenant's admission quotas and scheduling
// class. The zero value means "use the server defaults".
type TenantLimits struct {
	// MaxInflight bounds the tenant's queued-plus-running requests;
	// admission beyond it is rejected with CodeTenantInflight.
	MaxInflight int
	// VertexQuota bounds the sum of graph vertices charged to the tenant's
	// in-flight requests (each request is charged its predicted footprint,
	// settled against the store's FreeCount delta when it finishes);
	// admission beyond it is rejected with CodeTenantQuota.
	VertexQuota int
	// Band maps the tenant onto one of the machine's existing scheduling
	// bands — task.BandVital, task.BandEager (default), or task.BandReserve.
	// Higher bands get proportionally more dispatcher credits.
	Band uint8
	// Weight is the tenant's within-band weighted-round-robin share
	// (default 1): a weight-3 tenant may dequeue three jobs per ring visit.
	Weight int
}

func (l TenantLimits) withDefaults(o Options) TenantLimits {
	if l.MaxInflight <= 0 {
		l.MaxInflight = o.DefaultLimits.MaxInflight
	}
	if l.VertexQuota <= 0 {
		l.VertexQuota = o.DefaultLimits.VertexQuota
	}
	if l.Band != task.BandReserve && l.Band != task.BandVital {
		l.Band = task.BandEager
	}
	if l.Weight <= 0 {
		l.Weight = 1
	}
	return l
}

// tenantName is what a tenant may be called. The name arrives from outside
// (request body or header), becomes a /metrics label and keys state that is
// never dropped, so Submit refuses anything else before touching either.
var tenantName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// tenant is the server-side state for one tenant. Guarded by the server
// mutex.
type tenant struct {
	name     string
	limits   TenantLimits
	queue    []*Job
	inflight int // queued + running jobs
	charged  int // vertices charged to in-flight jobs
	// estimate is the EWMA of observed per-request vertex footprints; it
	// prices the next admission's quota charge.
	estimate float64
	// deficit is the tenant's remaining within-band WRR credit for the
	// current ring visit.
	deficit int
	inRing  bool
	// stats is the tenant's exposition record, counted in place; the fields
	// that mirror live state above are filled in by Server.TenantProms.
	stats   obs.TenantProm
	latency metrics.Histogram // completed-request latency, µs
	// Lineage exemplar: the slowest traced request seen so far (its latency
	// is stats.SlowestUs), exposed next to the tenant's latency quantiles so
	// an operator can jump from a latency regression straight to a trace.
	slowestTrace uint64
}

// observeTrace updates the tenant's slowest-traced-request exemplar from a
// finished job. Guarded by the server mutex like the rest of the stats.
func (t *tenant) observeTrace(j *Job) {
	if j.trace == 0 {
		return
	}
	us := j.finished.Sub(j.submitted).Microseconds()
	if us > t.stats.SlowestUs || t.slowestTrace == 0 {
		t.slowestTrace, t.stats.SlowestUs = j.trace, us
	}
}

// charge prices one request against the vertex quota.
func (t *tenant) chargeCost() int {
	c := int(t.estimate)
	if c <= 0 {
		c = estimateVertices
	}
	if c > t.limits.VertexQuota {
		// A footprint estimate above the whole quota would wedge the tenant
		// permanently; clamp so exactly one such request runs at a time.
		c = t.limits.VertexQuota
	}
	return c
}

// observe folds a finished request's measured vertex footprint into the
// estimate (EWMA, 30% new observation).
func (t *tenant) observe(used int) {
	if used < 1 {
		used = 1
	}
	if t.estimate <= 0 {
		t.estimate = float64(used)
		return
	}
	t.estimate = 0.7*t.estimate + 0.3*float64(used)
}

// bandWeight is the dispatcher credit each band receives per refill:
// vital tenants get four dequeues for every one a reserve tenant gets,
// mirroring the machine's own band priorities without ever starving a
// band that has work (credits refill whenever every queued band is dry).
func bandWeight(band uint8) int {
	switch band {
	case task.BandVital:
		return 4
	case task.BandEager:
		return 2
	default:
		return 1
	}
}
