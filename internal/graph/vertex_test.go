package graph

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindFree, "free"},
		{KindApply, "apply"},
		{KindComb, "comb"},
		{KindInt, "int"},
		{KindInd, "ind"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestReqKindPriority(t *testing.T) {
	if got := ReqVital.Priority(); got != PriorVital {
		t.Errorf("vital priority = %d, want %d", got, PriorVital)
	}
	if got := ReqEager.Priority(); got != PriorEager {
		t.Errorf("eager priority = %d, want %d", got, PriorEager)
	}
	if got := ReqNone.Priority(); got != PriorReserve {
		t.Errorf("none priority = %d, want %d", got, PriorReserve)
	}
	// Priority order must match the paper's 3 > 2 > 1.
	if !(ReqVital.Priority() > ReqEager.Priority() && ReqEager.Priority() > ReqNone.Priority()) {
		t.Error("priority ordering violated")
	}
}

func TestMarkCtxEpochs(t *testing.T) {
	var c MarkCtx
	if got := c.StateAt(1); got != Unmarked {
		t.Fatalf("fresh ctx at epoch 1 = %v, want unmarked", got)
	}
	c.Touch(1, 7, PriorVital)
	if got := c.StateAt(1); got != Transient {
		t.Fatalf("after touch = %v, want transient", got)
	}
	if got := c.PriorAt(1); got != PriorVital {
		t.Fatalf("prior = %d, want %d", got, PriorVital)
	}
	c.State = Marked
	if got := c.StateAt(1); got != Marked {
		t.Fatalf("state = %v, want marked", got)
	}
	// Advancing the epoch implicitly unmarks.
	if got := c.StateAt(2); got != Unmarked {
		t.Fatalf("stale epoch state = %v, want unmarked", got)
	}
	if got := c.PriorAt(2); got != PriorNone {
		t.Fatalf("stale epoch prior = %d, want none", got)
	}
	// Touching at the new epoch resets mt-cnt.
	c.MtCnt = 5
	c.Touch(2, 9, PriorEager)
	if c.MtCnt != 0 {
		t.Fatalf("mt-cnt after new-epoch touch = %d, want 0", c.MtCnt)
	}
	if c.MtPar != 9 || c.Prior != PriorEager {
		t.Fatalf("ctx after touch = %+v", c)
	}
	// Touching within the same epoch (re-marking at higher priority)
	// preserves the accumulated count.
	c.MtCnt = 3
	c.Touch(2, 11, PriorVital)
	if c.MtCnt != 3 {
		t.Fatalf("mt-cnt after same-epoch touch = %d, want 3", c.MtCnt)
	}
}

func TestVertexArgEdgeOps(t *testing.T) {
	v := &Vertex{ID: 1, Kind: KindApply}
	v.AddArg(2, ReqNone)
	v.AddArg(3, ReqVital)
	v.AddArg(4, ReqEager)

	if !v.HasArg(3) || v.HasArg(9) {
		t.Fatal("HasArg wrong")
	}
	if got := v.ArgIndex(4); got != 2 {
		t.Fatalf("ArgIndex(4) = %d, want 2", got)
	}
	if got := v.ReqKindOf(3); got != ReqVital {
		t.Fatalf("ReqKindOf(3) = %v, want vital", got)
	}
	if got := v.ReqKindOf(9); got != ReqNone {
		t.Fatalf("ReqKindOf(missing) = %v, want none", got)
	}

	if !v.SetReqKind(2, ReqEager) {
		t.Fatal("SetReqKind on present edge failed")
	}
	if v.SetReqKind(9, ReqVital) {
		t.Fatal("SetReqKind on absent edge succeeded")
	}
	if got := v.ReqKindOf(2); got != ReqEager {
		t.Fatalf("ReqKindOf(2) = %v, want eager", got)
	}

	rk, ok := v.RemoveArg(3)
	if !ok || rk != ReqVital {
		t.Fatalf("RemoveArg(3) = (%v, %v)", rk, ok)
	}
	// Order of remaining args preserved.
	if len(v.Args) != 2 || v.Args[0] != 2 || v.Args[1] != 4 {
		t.Fatalf("args after remove = %v", v.Args)
	}
	if len(v.ReqKinds) != 2 || v.ReqKinds[0] != ReqEager || v.ReqKinds[1] != ReqEager {
		t.Fatalf("reqkinds after remove = %v", v.ReqKinds)
	}
	if _, ok := v.RemoveArg(3); ok {
		t.Fatal("RemoveArg of absent edge succeeded")
	}
}

func TestVertexDuplicateArgs(t *testing.T) {
	// x = x + x style sharing: duplicate children must be representable and
	// RemoveArg must delete exactly one occurrence.
	v := &Vertex{ID: 1, Kind: KindApply}
	v.AddArg(5, ReqVital)
	v.AddArg(5, ReqEager)
	if got := v.ArgIndex(5); got != 0 {
		t.Fatalf("ArgIndex = %d, want first occurrence 0", got)
	}
	rk, ok := v.RemoveArg(5)
	if !ok || rk != ReqVital {
		t.Fatalf("RemoveArg = (%v,%v), want (vital,true)", rk, ok)
	}
	if len(v.Args) != 1 || v.ReqKinds[0] != ReqEager {
		t.Fatalf("remaining = %v/%v", v.Args, v.ReqKinds)
	}
}

func TestRequesterOps(t *testing.T) {
	v := &Vertex{ID: 1}
	v.AddRequester(10, ReqVital)
	v.AddRequester(11, ReqEager)
	if !v.HasRequester(10) || v.HasRequester(12) {
		t.Fatal("HasRequester wrong")
	}
	if !v.RemoveRequester(10) {
		t.Fatal("RemoveRequester(10) failed")
	}
	if v.RemoveRequester(10) {
		t.Fatal("double RemoveRequester succeeded")
	}
	if len(v.Requested) != 1 || v.Requested[0].Src != 11 {
		t.Fatalf("requested = %v", v.Requested)
	}
}

func TestTaskChildren(t *testing.T) {
	// mark3 traces through requested(v) ∪ (args(v) − req-args(v)).
	v := &Vertex{ID: 1}
	v.AddArg(2, ReqVital) // requested: excluded
	v.AddArg(3, ReqNone)  // not requested: included
	v.AddArg(4, ReqEager) // requested: excluded
	v.AddRequester(7, ReqVital)
	v.AddRequester(8, ReqEager)

	got := v.TaskChildren(nil)
	want := map[VertexID]bool{7: true, 8: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("TaskChildren = %v, want keys %v", got, want)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected child %d in %v", id, got)
		}
	}
}

func TestResetFree(t *testing.T) {
	v := &Vertex{ID: 1, Kind: KindApply, Val: 42}
	v.AddArg(2, ReqVital)
	v.AddRequester(3, ReqEager)
	v.Red.Pending = 2
	v.RCtx.Touch(5, 9, PriorVital)

	v.ResetFree()
	if v.Kind != KindFree || v.Val != 0 || len(v.Args) != 0 || len(v.Requested) != 0 {
		t.Fatalf("after ResetFree: %+v", v)
	}
	if v.Red.Pending != 0 {
		t.Fatal("reduction state not cleared")
	}
	// Marking epochs are preserved: a stale epoch is already "unmarked".
	if v.RCtx.Epoch != 5 {
		t.Fatal("epoch should be preserved")
	}
}

func TestMarkCtxTouchQuick(t *testing.T) {
	// Property: after Touch(e, p, pr), state at e is Transient with the
	// given parent and priority, and state at e+1 is Unmarked.
	f := func(epoch uint64, par uint32, prior uint8) bool {
		prior = prior%3 + 1
		var c MarkCtx
		c.Touch(epoch, VertexID(par), prior)
		return c.StateAt(epoch) == Transient &&
			c.MtPar == VertexID(par) &&
			c.PriorAt(epoch) == prior &&
			c.StateAt(epoch+1) == Unmarked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSerialStoreSkipsVertexLock: a serial store's vertices, reserved or
// grown, leave their mutex alone, and a default store's take it. The flag
// that says which sits in padding: Vertex stays 216 bytes.
func TestSerialStoreSkipsVertexLock(t *testing.T) {
	if got := unsafe.Sizeof(Vertex{}); got != 216 {
		t.Errorf("Sizeof(Vertex) = %d, want 216", got)
	}
	for _, serial := range []bool{false, true} {
		s := NewStore(Config{Partitions: 1, Capacity: 2, Serial: serial})
		for i := 0; i < 3; i++ { // the third grows the arena past Capacity
			v, err := s.Alloc(0, KindInt, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			v.Lock()
			if free := v.Mutex.TryLock(); free != serial {
				t.Errorf("serial=%v: v%d's mutex free under Lock = %v", serial, v.ID, free)
			} else if free {
				v.Mutex.Unlock()
			}
			v.Unlock()
			if !v.Mutex.TryLock() {
				t.Fatalf("serial=%v: v%d's mutex held after Unlock", serial, v.ID)
			}
			v.Mutex.Unlock()
		}
	}
}
