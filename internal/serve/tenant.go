package serve

import (
	"dgr/internal/metrics"
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

// tenantStats are the per-tenant counters the exposition renders. All
// fields except the latency histogram are guarded by the server mutex.
type tenantStats struct {
	Requests         int64
	Admitted         int64
	Completed        int64
	Failed           int64
	RejectedQueue    int64
	RejectedInflight int64
	RejectedQuota    int64
	CacheHits        int64
	CacheMisses      int64
	latency          metrics.Histogram // completed-request latency, µs
}

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
	stats   tenantStats
	// Lineage exemplar: the slowest traced request seen so far, exposed
	// next to the tenant's latency quantiles so an operator can jump from
	// a latency regression straight to a concrete trace.
	slowestTrace uint64
	slowestUs    int64
}

// observeTrace updates the tenant's slowest-traced-request exemplar from a
// finished job. Guarded by the server mutex like the rest of the stats.
func (t *tenant) observeTrace(j *Job) {
	if j.trace == 0 {
		return
	}
	us := j.finished.Sub(j.submitted).Microseconds()
	if us > t.slowestUs || t.slowestTrace == 0 {
		t.slowestTrace, t.slowestUs = j.trace, us
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
