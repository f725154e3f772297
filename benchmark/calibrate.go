package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// calibration is a fixed piece of work that shares no code with dgr. Wall
// time on a shared host moves by 10-30 % for minutes at a time, for this
// kernel as for the machine, so the time of a pass is reported relative to
// the calibration slices run right before and after it (ROADMAP: nanoseconds
// normalised by a calibration row). Half of a slice is a chain of dependent
// loads through a 16 MB table, which is what following graph edges costs;
// the other half locks, updates and counts over 64k small records, which is
// what dispatching tasks costs. Its tables are mapped outside the Go heap and
// a slice allocates nothing, so the Go collector paces itself on the
// workload's heap alone; peak_rss_mb includes their 19 MB.
type calibration struct {
	next  []uint32
	at    uint32
	recs  []calRecord
	rng   uint64
	count atomic.Int64
}

type calRecord struct {
	mu   sync.Mutex
	args [3]uint32
	n    int
	val  int64
}

const (
	calTable   = 1 << 22 // uint32 entries: 16 MB
	calRecords = 1 << 16
	calLoads   = 100_000
	calUpdates = 150_000
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// offHeap maps n zeroed values of a pointer-free type outside the Go heap,
// for the life of the process.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

func newCalibration() (*calibration, error) {
	c := &calibration{rng: 88172645463325252}
	var err error
	if c.next, err = offHeap[uint32](calTable); err != nil {
		return nil, err
	}
	if c.recs, err = offHeap[calRecord](calRecords); err != nil {
		return nil, err
	}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every entry.
	x := uint64(12345)
	for i := calTable - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c, nil
}

// slice runs one fixed slice of calibration work and returns its wall time.
func (c *calibration) slice() time.Duration {
	t0 := time.Now()
	at := c.at
	for i := 0; i < calLoads; i++ {
		at = c.next[at]
	}
	c.at = at
	x := c.rng
	for i := 0; i < calUpdates; i++ {
		x = xorshift(x)
		r := &c.recs[x%calRecords]
		r.mu.Lock()
		if r.n == len(r.args) {
			r.n = 0
		}
		r.args[r.n] = uint32(x)
		r.n++
		r.val += int64(x & 7)
		r.mu.Unlock()
		c.count.Add(1)
	}
	c.rng = x
	return time.Since(t0)
}
