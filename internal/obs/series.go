package obs

import (
	"math"
	"sort"
	"sync"
)

// PEPoint is one per-PE time-series sample.
type PEPoint struct {
	// TS is nanoseconds on the clock (Now).
	TS int64 `json:"ts"`
	// Bands is the PE's pool depth per priority band (reserve..marking).
	Bands [Bands]int `json:"bands"`
	// Util is the fraction of the sampling interval the PE spent executing
	// tasks, in [0,1].
	Util float64 `json:"util"`
	// Execs is the PE's cumulative task-execution count.
	Execs int64 `json:"execs"`
	// Free is the free-vertex count of the PE's graph partition.
	Free int `json:"free"`
}

// MachPoint is one machine-wide time-series sample.
type MachPoint struct {
	TS     int64 `json:"ts"`
	Cycles int64 `json:"cycles"`
	Gauges
}

// seriesCapacity is how many samples each time-series ring retains.
const seriesCapacity = 512

// series holds the bounded sample history. One mutex guards everything:
// sampling happens a few hundred times a second at most.
type series struct {
	o   *Obs
	cap int

	mu       sync.Mutex
	pe       [][]PEPoint // ring per PE
	mach     []MachPoint // machine ring
	next     uint64
	lastTS   int64
	lastBusy []int64
}

func newSeries(o *Obs, pes, capacity int) *series {
	s := &series{
		o:        o,
		cap:      capacity,
		pe:       make([][]PEPoint, pes),
		mach:     make([]MachPoint, capacity),
		lastBusy: make([]int64, pes),
		lastTS:   Now(),
	}
	for i := range s.pe {
		s.pe[i] = make([]PEPoint, capacity)
	}
	return s
}

func (s *series) sample() {
	src := s.o.opts.Sources
	now := Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	interval := now - s.lastTS
	slot := s.next % uint64(s.cap)
	for pe := range s.pe {
		p := PEPoint{TS: now, Execs: s.o.slots[pe].execs.Load()}
		if src.QueueDepths != nil {
			p.Bands = src.QueueDepths(pe)
		}
		if src.FreeOf != nil {
			p.Free = src.FreeOf(pe)
		}
		busy := s.o.slots[pe].busyNs.Load()
		if interval > 0 {
			p.Util = math.Min(1, float64(busy-s.lastBusy[pe])/float64(interval))
		}
		s.lastBusy[pe] = busy
		s.pe[pe][slot] = p
	}
	mp := MachPoint{TS: now}
	if src.Cycles != nil {
		mp.Cycles = src.Cycles()
	}
	if src.Gauges != nil {
		mp.Gauges = src.Gauges()
	}
	s.mach[slot] = mp
	s.next++
	s.lastTS = now
}

// SeriesSnap is a point-in-time copy of the sampled series, oldest sample
// first, plus per-PE summary quantiles over the retained window.
type SeriesSnap struct {
	// PE[i] is PE i's retained samples.
	PE [][]PEPoint `json:"pe"`
	// Mach is the machine-wide retained samples.
	Mach []MachPoint `json:"mach"`
	// Summary[i] summarizes PE i's retained window.
	Summary []PESummary `json:"summary"`
}

// PESummary is quantile/extreme digest of one PE's retained window.
type PESummary struct {
	// Samples is the number of retained samples.
	Samples int `json:"samples"`
	// UtilP50 and UtilP95 are utilization quantiles.
	UtilP50 float64 `json:"util_p50"`
	UtilP95 float64 `json:"util_p95"`
	// DepthP50, DepthP95, DepthMax digest total queue depth.
	DepthP50 int `json:"depth_p50"`
	DepthP95 int `json:"depth_p95"`
	DepthMax int `json:"depth_max"`
	// Execs is the PE's cumulative execution count at the newest sample.
	Execs int64 `json:"execs"`
}

func (s *series) snapshot() *SeriesSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	retained := uint64(s.cap)
	start := uint64(0)
	if n > retained {
		start = n - retained
	}
	snap := &SeriesSnap{
		PE:      make([][]PEPoint, len(s.pe)),
		Summary: make([]PESummary, len(s.pe)),
	}
	for i := start; i < n; i++ {
		slot := i % uint64(s.cap)
		snap.Mach = append(snap.Mach, s.mach[slot])
		for pe := range s.pe {
			snap.PE[pe] = append(snap.PE[pe], s.pe[pe][slot])
		}
	}
	for pe := range snap.PE {
		snap.Summary[pe] = summarize(snap.PE[pe])
	}
	return snap
}

func summarize(pts []PEPoint) PESummary {
	sum := PESummary{Samples: len(pts)}
	if len(pts) == 0 {
		return sum
	}
	utils := make([]float64, len(pts))
	depths := make([]int, len(pts))
	for i, p := range pts {
		utils[i] = p.Util
		d := 0
		for _, b := range p.Bands {
			d += b
		}
		depths[i] = d
		if d > sum.DepthMax {
			sum.DepthMax = d
		}
	}
	sort.Float64s(utils)
	sort.Ints(depths)
	sum.UtilP50 = utils[quantIdx(len(utils), 0.50)]
	sum.UtilP95 = utils[quantIdx(len(utils), 0.95)]
	sum.DepthP50 = depths[quantIdx(len(depths), 0.50)]
	sum.DepthP95 = depths[quantIdx(len(depths), 0.95)]
	sum.Execs = pts[len(pts)-1].Execs
	return sum
}

// quantIdx returns the index of the q-quantile in a sorted slice of n
// elements (nearest-rank).
func quantIdx(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
