package task

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dgr/internal/graph"
)

func ringTasks(r *ring) []int64 {
	out := make([]int64, 0, r.len())
	for i := 0; i < r.len(); i++ {
		out = append(out, int64(r.at(i).Dst))
	}
	return out
}

func TestRingFIFOWraparound(t *testing.T) {
	var r ring
	// Interleave pushes and pops so head wraps the initial capacity many
	// times while the ring stays small.
	next, expect := int64(0), int64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.push(Task{Dst: vid(next)})
			next++
		}
		for i := 0; i < 2; i++ {
			got := r.popFront()
			if int64(got.Dst) != expect {
				t.Fatalf("round %d: popped %d, want %d", round, got.Dst, expect)
			}
			expect++
		}
	}
	if r.len() != 100 {
		t.Fatalf("len = %d, want 100", r.len())
	}
	for ; expect < next; expect++ {
		if got := r.popFront(); int64(got.Dst) != expect {
			t.Fatalf("drain: popped %d, want %d", got.Dst, expect)
		}
	}
	if r.len() != 0 {
		t.Fatalf("len = %d, want 0", r.len())
	}
}

func vid(n int64) graph.VertexID { return graph.VertexID(n) }

func TestRingRemoveAtPreservesOrder(t *testing.T) {
	// Remove from every position of a wrapped ring; remaining order must be
	// FIFO order minus the removed element.
	for remove := 0; remove < 7; remove++ {
		var r ring
		// Force wrap: fill past initial cap boundary with pops in between.
		for i := 0; i < 20; i++ {
			r.push(Task{Dst: vid(int64(i))})
		}
		for i := 0; i < 13; i++ {
			r.popFront()
		}
		// ring now holds 13..19 (7 tasks), wrapped in a cap-16 buffer.
		got := r.removeAt(remove)
		if int64(got.Dst) != int64(13+remove) {
			t.Fatalf("removeAt(%d) = %d, want %d", remove, got.Dst, 13+remove)
		}
		var want []int64
		for i := int64(13); i < 20; i++ {
			if i != int64(13+remove) {
				want = append(want, i)
			}
		}
		rest := ringTasks(&r)
		if len(rest) != len(want) {
			t.Fatalf("after removeAt(%d): %v, want %v", remove, rest, want)
		}
		for i := range want {
			if rest[i] != want[i] {
				t.Fatalf("after removeAt(%d): %v, want %v", remove, rest, want)
			}
		}
	}
}

func TestRingFilterInPlace(t *testing.T) {
	var r ring
	for i := 0; i < 40; i++ {
		r.push(Task{Dst: vid(int64(i))})
	}
	for i := 0; i < 25; i++ { // wrap
		r.popFront()
		r.push(Task{Dst: vid(int64(40 + i))})
	}
	// Keep even Dst only, and bump Prior through the pointer to check
	// mutation retention.
	removed := r.filter(func(tk *Task) bool {
		if tk.Dst%2 != 0 {
			return false
		}
		tk.Prior = 9
		return true
	})
	if removed != 20 {
		t.Fatalf("removed = %d, want 20", removed)
	}
	prev := int64(-1)
	for i := 0; i < r.len(); i++ {
		tk := r.at(i)
		if tk.Dst%2 != 0 {
			t.Fatalf("odd survivor %d", tk.Dst)
		}
		if tk.Prior != 9 {
			t.Fatalf("filter dropped mutation on %d", tk.Dst)
		}
		if int64(tk.Dst) <= prev {
			t.Fatalf("order broken at %d after %d", tk.Dst, prev)
		}
		prev = int64(tk.Dst)
	}
}

// TestRingMatchesSliceModel drives ring and a plain-slice model with the
// same random operation sequence and requires identical observable state
// throughout — the semantics-identity argument for swapping the pool's
// band storage. In the second case pushes outnumber the other operations
// for the first growOps, so the ring grows chunk by chunk with its head
// anywhere in a chunk, and then drains back down.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, tc := range []struct {
		name         string
		seed         int64
		ops, growOps int
		mod          graph.VertexID // filter drops one residue of Dst modulo mod
		every        int            // compare the whole ring every that many ops
		minChunks    int
	}{
		{"small", 1, 5000, 0, 3, 1, 0},
		{"chunks", 2, 12000, 8000, 500, 97, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			var r ring
			var model []Task
			for op := 0; op < tc.ops; op++ {
				// Of eight draws: pushes, then a third each of the rest to
				// popFront, removeAt and filter.
				pushes := 2
				if op < tc.growOps {
					pushes = 5
				}
				rest := (8 - pushes) / 3
				switch k := rng.Intn(8); {
				case k < pushes || len(model) == 0:
					tk := Task{Dst: vid(int64(op)), Kind: Demand}
					r.push(tk)
					model = append(model, tk)
				case k < pushes+rest:
					got := r.popFront()
					want := model[0]
					model = model[1:]
					if got != want {
						t.Fatalf("op %d: popFront = %v, want %v", op, got, want)
					}
				case k < 8-rest:
					i := rng.Intn(len(model))
					got := r.removeAt(i)
					want := model[i]
					model = append(model[:i], model[i+1:]...)
					if got != want {
						t.Fatalf("op %d: removeAt(%d) = %v, want %v", op, i, got, want)
					}
				default:
					cut := graph.VertexID(rng.Intn(int(tc.mod)))
					r.filter(func(tk *Task) bool { return tk.Dst%tc.mod != cut })
					kept := model[:0]
					for _, tk := range model {
						if tk.Dst%tc.mod != cut {
							kept = append(kept, tk)
						}
					}
					model = kept
				}
				if r.len() != len(model) {
					t.Fatalf("op %d: len = %d, model %d", op, r.len(), len(model))
				}
				if op%tc.every != 0 && op != tc.ops-1 {
					continue
				}
				for i := range model {
					if *r.at(i) != model[i] {
						t.Fatalf("op %d: at(%d) = %v, model %v", op, i, *r.at(i), model[i])
					}
				}
			}
			if chunks := r.size() / ringChunk; chunks < tc.minChunks {
				t.Fatalf("the ring grew to %d chunks, want at least %d", chunks, tc.minChunks)
			}
		})
	}
}

// TestRingGrowsByChunk: past ringChunk a new peak costs one chunk, and a
// ring back at a peak it reached before allocates nothing.
func TestRingGrowsByChunk(t *testing.T) {
	var r ring
	for i := range 3*ringChunk + 5 {
		r.push(Task{Dst: vid(int64(i))})
	}
	for range ringChunk + 7 { // the head moves into the second chunk
		r.popFront()
	}
	for r.len() < r.size() {
		r.push(Task{})
	}
	before := r.size()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.push(Task{})
	runtime.ReadMemStats(&ms1)
	if got := r.size(); got != before+ringChunk {
		t.Fatalf("size %d -> %d, want one more chunk", before, got)
	}
	// One chunk, and the chunk list's array (a few words) if append moved it.
	if got, max := ms1.TotalAlloc-ms0.TotalAlloc, uint64(ringChunk*unsafe.Sizeof(Task{})+256); got > max {
		t.Fatalf("a new peak allocated %d bytes, want at most %d", got, max)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for range 2 * ringChunk {
			r.popFront()
		}
		for range 2 * ringChunk {
			r.push(Task{})
		}
	}); allocs != 0 {
		t.Fatalf("a warm ring allocated %.1f objects per cycle", allocs)
	}
}
