package dgr_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dgr"
	"dgr/internal/graph"
)

// TestAllocStaysOnItsPartition: whatever was allocated, retired and
// published before, Alloc(p) hands out a vertex of partition p — a partition
// whose free list is empty is dealt a fresh block of 64 ids, never a
// sibling's free vertex — V grows by whole blocks, and a reader that takes
// FreeCount before Len never reads more free vertices than V holds. A
// serial store churns on one goroutine; a parallel one on an allocator per
// partition, with one retirer publishing what they hand it, as a collector
// does. A fresh machine holds no vertex at all.
func TestAllocStaysOnItsPartition(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 4})
	if n := m.TotalVertices(); n != 0 {
		t.Fatalf("a fresh machine holds %d vertices, want 0", n)
	}
	m.Close()
	for _, serial := range []bool{true, false} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			const parts, perPart = 4, 3000
			s := graph.NewStore(graph.Config{Partitions: parts, Serial: serial})
			check := func(part int, v *graph.Vertex) error {
				if int(v.Part) != part || s.PartitionOf(v.ID) != part {
					return fmt.Errorf("Alloc(%d) = v%d of partition %d (PartitionOf %d)", part, v.ID, v.Part, s.PartitionOf(v.ID))
				}
				if free, n := s.FreeCount(), s.Len(); n%64 != 0 || free > n {
					return fmt.Errorf("Len %d, FreeCount %d read before it: want whole blocks and no more free than V", n, free)
				}
				return nil
			}
			retire := func(vs []*graph.Vertex) {
				for _, v := range vs {
					v.Lock()
					s.Retire(v)
					v.Unlock()
				}
				s.PublishRetired()
			}
			if serial {
				rng := rand.New(rand.NewSource(1))
				var live []*graph.Vertex
				for i := 0; i < parts*perPart; i++ {
					part := rng.Intn(parts)
					if rng.Intn(2) == 0 {
						part = 0 // skew: partition 0 runs dry most often
					}
					v, err := s.Alloc(part, graph.KindInt, int64(i))
					if err != nil {
						t.Fatal(err)
					}
					if err := check(part, v); err != nil {
						t.Fatal(err)
					}
					if live = append(live, v); len(live) == 256 {
						rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
						retire(live[:200])
						live = append(live[:0], live[200:]...)
					}
				}
				return
			}
			retired := make(chan *graph.Vertex, 64)
			var retirer sync.WaitGroup
			retirer.Add(1)
			go func() { // the collector: the store's one retirer
				defer retirer.Done()
				var batch []*graph.Vertex
				for v := range retired {
					if batch = append(batch, v); len(batch) == 32 {
						retire(batch)
						batch = batch[:0]
					}
				}
				retire(batch)
			}()
			var allocators sync.WaitGroup
			for p := 0; p < parts; p++ {
				allocators.Add(1)
				go func(part int) {
					defer allocators.Done()
					for i := 0; i < perPart; i++ {
						v, err := s.Alloc(part, graph.KindInt, int64(i))
						if err != nil {
							t.Error(err)
							return
						}
						if err := check(part, v); err != nil {
							t.Error(err)
							return
						}
						switch i % 3 {
						case 0:
							s.Release(v)
						case 1:
							retired <- v
						}
					}
				}(p)
			}
			allocators.Wait()
			close(retired)
			retirer.Wait()
			if free, n, live := s.FreeCount(), s.Len(), parts*perPart/3; free != n-live {
				t.Fatalf("FreeCount %d of Len %d, want all but the %d live", free, n, live)
			}
		})
	}
}
