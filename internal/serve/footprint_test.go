package serve

import (
	"context"
	"testing"
	"time"
)

// footprintOf evaluates fibSrc as the first request of a new tenant on a
// one-worker server and returns what settlement charged for it: the
// tenant's EWMA estimate, which after a single observation is exactly the
// FreeCount delta across the evaluation. With recycled set, the worker's
// machine is first thrown away by a failing request and replaced.
func footprintOf(t *testing.T, recycled bool) int {
	t.Helper()
	s := newTestServer(t, Options{Workers: 1})
	if recycled {
		j, err := s.Submit(Request{Tenant: "wrecker", Program: "if 1 then 2 else 3"})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if v, _ := j.Wait(context.Background()); v.Status != StatusFailed {
			t.Fatalf("job = %+v, want failed", v)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Recycles != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("recycles = %d, want 1", s.Stats().Recycles)
			}
			time.Sleep(time.Millisecond)
		}
	}
	j, err := s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v, _ := j.Wait(context.Background()); v.Status != StatusDone || v.Result.Rendered != "144" {
		t.Fatalf("job = %+v, want 144", v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.tenants["alice"].estimate)
}

// TestFootprintSettlementUnchangedByLazyStore: admission prices a request
// from how far FreeCount dropped across the previous ones. Never-used
// vertices are members of F whether or not the store has materialised
// them, so the charge for a program must be what it was when the store
// pre-filled its free lists (the constant was read off that store), on a
// machine built at start-up and on one swapped in by a recycle.
func TestFootprintSettlementUnchangedByLazyStore(t *testing.T) {
	const eagerStoreCharge = 4447 // vertices charged for fibSrc by the pre-filled store
	if got := footprintOf(t, false); got != eagerStoreCharge {
		t.Errorf("fresh machine: charged %d vertices, want %d", got, eagerStoreCharge)
	}
	if got := footprintOf(t, true); got != eagerStoreCharge {
		t.Errorf("recycled machine: charged %d vertices, want %d", got, eagerStoreCharge)
	}
}
