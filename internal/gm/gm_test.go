package gm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func named(i int) *Super { return &Super{Name: fmt.Sprint(i)} }

// TestAddBatchIndices: a batch lands at the index AddBatch returns, and no
// later batch — including the ones that regrow the table — moves or replaces
// an earlier entry; out-of-range indices resolve to nil.
func TestAddBatchIndices(t *testing.T) {
	p := NewProgram()
	if p.Len() != 0 || p.Super(0) != nil {
		t.Fatalf("empty program: Len %d, Super(0) %v", p.Len(), p.Super(0))
	}
	var all []*Super
	for batch := 0; batch < 200; batch++ {
		supers := make([]*Super, 1+batch%3)
		for i := range supers {
			supers[i] = named(len(all) + i)
		}
		if base := p.AddBatch(supers); base != len(all) {
			t.Fatalf("batch %d: base %d, want %d", batch, base, len(all))
		}
		all = append(all, supers...)
		for i, want := range all {
			if got := p.Super(i); got != want {
				t.Fatalf("after batch %d: Super(%d) = %p, want %p", batch, i, got, want)
			}
		}
	}
	if p.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(all))
	}
	if p.Super(-1) != nil || p.Super(p.Len()) != nil {
		t.Fatal("out-of-range index resolved")
	}
}

// TestProgramConcurrentReaders races lock-free readers against 1 000
// AddBatch calls (run under -race in CI): an index below a Len the reader
// has seen always resolves, and to the entry that was put there.
func TestProgramConcurrentReaders(t *testing.T) {
	p := NewProgram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for n, i := p.Len(), 0; i < n; i += 1 + n/16 {
					if s := p.Super(i); s == nil || s.Name != fmt.Sprint(i) {
						t.Errorf("Super(%d) = %+v with Len %d", i, s, n)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		p.AddBatch([]*Super{named(i)})
	}
	close(stop)
	wg.Wait()
}

// TestAddBatchLinearAllocation: a machine compiles for as long as it serves,
// so what one batch allocates must not grow with the table. 10 000
// single-entry batches copied 400 MB when every batch re-copied the table;
// amortised growth in place stays under 1 MB.
func TestAddBatchLinearAllocation(t *testing.T) {
	const n = 10_000
	p := NewProgram()
	batch := []*Super{named(0)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		p.AddBatch(batch)
	}
	runtime.ReadMemStats(&after)
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	if perBatch := (after.TotalAlloc - before.TotalAlloc) / n; perBatch > 256 {
		t.Fatalf("%d B allocated per single-entry batch over %d batches; the table is being re-copied", perBatch, n)
	}
}

func TestOpString(t *testing.T) {
	seen := map[string]Op{}
	for o := OpPushArg; o <= OpUpdateLeaf; o++ {
		name := o.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no name", o)
		}
		if other, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d are both %q", other, o, name)
		}
		seen[name] = o
	}
	for _, o := range []Op{0, OpUpdateLeaf + 1, 255} {
		if got, want := o.String(), fmt.Sprintf("op(%d)", o); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", o, got, want)
		}
	}
}
