package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	if len(v.Args()) != 2 || v.Args()[0] != 2 || v.Args()[1] != 4 {
		t.Fatalf("args after remove = %v", v.Args())
	}
	if v.ReqKindAt(0) != ReqEager || v.ReqKindAt(1) != ReqEager {
		t.Fatalf("reqkinds after remove = %v, %v", v.ReqKindAt(0), v.ReqKindAt(1))
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
	if len(v.Args()) != 1 || v.ReqKindAt(0) != ReqEager {
		t.Fatalf("remaining = %v/%v", v.Args(), v.ReqKindAt(0))
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
	if len(v.Requested()) != 1 || v.Requested()[0].Src != 11 {
		t.Fatalf("requested = %v", v.Requested())
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
	v.RCtx.Touch(5, 9, PriorVital)

	v.ResetFree()
	if v.Kind != KindFree || v.Val != 0 || len(v.Args()) != 0 || len(v.Requested()) != 0 {
		t.Fatalf("after ResetFree: %+v", v)
	}
	// Marking epochs are preserved: a stale epoch is already "unmarked".
	if v.RCtx.Epoch != 5 {
		t.Fatal("epoch should be preserved")
	}
}

func TestMarkCtxTouchQuick(t *testing.T) {
	// Property: after Touch(e, p, pr), state at e is Transient with the
	// given parent and priority, and state at the counter's next epoch is
	// Unmarked. Half the epochs are drawn from the last and first few the
	// 32-bit counter issues, where NextEpoch wraps.
	nearWrap := []uint32{FreshAllocEpoch - 3, FreshAllocEpoch - 2, FreshAllocEpoch - 1, 1, 2, 3}
	f := func(epoch uint32, wrap bool, par uint32, prior uint8) bool {
		if wrap {
			epoch = nearWrap[epoch%uint32(len(nearWrap))]
		}
		prior = prior%3 + 1
		var c MarkCtx
		c.Touch(epoch, VertexID(par), prior)
		next := NextEpoch(epoch)
		return c.StateAt(epoch) == Transient &&
			c.MtPar == VertexID(par) &&
			c.PriorAt(epoch) == prior &&
			c.StateAt(next) == Unmarked &&
			next != 0 && next != FreshAllocEpoch &&
			EpochBefore(epoch, next) && !EpochBefore(next, epoch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrapRule: the counter steps over 0 and the sentinel; serial-number
// order holds across the wrap and reads the sentinel as after everything;
// renormalising pulls a stamp lagging by more than epochLagMax up to lag by
// exactly that — still before, and still stale — and leaves the rest alone.
func TestWrapRule(t *testing.T) {
	if got := NextEpoch(FreshAllocEpoch - 1); got != 1 {
		t.Errorf("NextEpoch(2^32-2) = %d, want 1", got)
	}
	if !EpochBefore(FreshAllocEpoch-1, 1) || EpochBefore(1, FreshAllocEpoch-1) {
		t.Error("serial-number order flips across the wrap")
	}
	if EpochBefore(FreshAllocEpoch, 1) || EpochBefore(FreshAllocEpoch, FreshAllocEpoch-1) {
		t.Error("FreshAllocEpoch reads as before a real epoch")
	}
	f := func(now, lag uint32) bool {
		if now == 0 || now == FreshAllocEpoch {
			return true
		}
		lag %= 1 << 31 // the wrap rule's bound
		stamp := now - lag
		if stamp == FreshAllocEpoch {
			return true
		}
		var v Vertex
		v.RCtx.Epoch, v.TCtx.Epoch = stamp, stamp
		v.Red = RedState{AllocEpoch: stamp, AllocEpochT: FreshAllocEpoch}
		v.renormalise(now, now)
		got := v.RCtx.Epoch
		if lag <= epochLagMax {
			if got != stamp {
				return false
			}
		} else if d := now - got; d != epochLagMax && d != epochLagMax+1 || got == FreshAllocEpoch {
			return false
		}
		return v.TCtx.Epoch == got && v.Red.AllocEpoch == got &&
			v.Red.AllocEpochT == FreshAllocEpoch &&
			(lag == 0 || EpochBefore(got, now) && v.RCtx.StateAt(now) == Unmarked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestVertexSize: a vertex is 96 bytes, so a sub-block of subSize (16)
// vertices and its in-use word, 1 544 bytes, pads to 1 600, 25 cache lines,
// and the store's chunks of 4, 8 and 16 sub-blocks, with the 8-byte header
// Go puts on an object of more than 512 bytes that holds pointers, cost the
// heap the 6 528, 13 568 and 27 264-byte size classes. A class is what one
// chunk allocation adds to the heap, averaged over 64 of them and the least
// of three such readings, so that a stray allocation elsewhere cannot move
// it. The CI census prints the sizes and the classes. An overflow record is
// 120 bytes, which falls in Go's 128-byte size class: a record costs an
// allocation what a 128-byte one would.
func TestVertexSize(t *testing.T) {
	vsz, ssz := unsafe.Sizeof(Vertex{}), unsafe.Sizeof(subBlock{})
	const n = 64
	var classes []uint64
	for c := MinChunk; c <= MaxChunk; c *= 2 {
		class := uint64(math.MaxUint64)
		for range 3 { // a stray allocation elsewhere only adds
			class = min(class, allocatedBytes(func() {
				for range n {
					sink = make([]subBlock, c)
				}
			})/n)
		}
		classes = append(classes, class)
	}
	t.Logf("census: Sizeof(Vertex)=%d Sizeof(subBlock)=%d chunk heap classes=%v", vsz, ssz, classes)
	if vsz != 96 {
		t.Errorf("Sizeof(Vertex) = %d, want 96", vsz)
	}
	if ssz != 1600 {
		t.Errorf("Sizeof(subBlock) = %d, want 1600, 25 whole cache lines", ssz)
	}
	if !slices.Equal(classes, []uint64{6528, 13568, 27264}) {
		t.Errorf("chunks of %d to %d sub-blocks cost the heap %v bytes, want the 6528, 13568 and 27264-byte size classes",
			MinChunk, MaxChunk, classes)
	}
	if got := unsafe.Sizeof(overflow{}); got != 120 {
		t.Errorf("Sizeof(overflow) = %d, want 120", got)
	}
}

// sink keeps TestVertexSize's chunks on the heap.
var sink []subBlock

// TestSerialStoreSkipsVertexLock: a serial store's vertices leave their
// mutex alone, and a default store's take it. The flag
// that says which sits in what would be the lock's padding (TestVertexSize).
func TestSerialStoreSkipsVertexLock(t *testing.T) {
	for _, serial := range []bool{false, true} {
		s := NewStore(Config{Partitions: 1, Serial: serial})
		for i := 0; i < 3; i++ {
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

// edgeModel is the plain-slice reference the vertex's inline/overflow edge
// storage must agree with.
type edgeModel struct {
	args  []VertexID
	kinds []ReqKind
	reqs  []Requester
}

func (m *edgeModel) argIndex(c VertexID) int {
	for i, a := range m.args {
		if a == c {
			return i
		}
	}
	return -1
}

func (m *edgeModel) taskChildren() []VertexID {
	var dst []VertexID
	for _, r := range m.reqs {
		dst = append(dst, r.Src)
	}
	for i, a := range m.args {
		if m.kinds[i] == ReqNone {
			dst = append(dst, a)
		}
	}
	return dst
}

// TestVertexEdgesMatchModel drives random sequences of edge writes against a
// vertex and a plain-slice model, and checks after every step that Args, the
// request kinds, Requested and TaskChildren agree element for element and in
// order, and that a set sits in the overflow record exactly when it does not
// fit inline. The ids come from a small range, so duplicates occur, and the
// sequences must cross between inline and overflow storage both ways.
func TestVertexEdgesMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStore(Config{Partitions: 1})
	var spills, unspills, reqSpills, reqUnspills int
	for seq := 0; seq < 300; seq++ {
		v, err := s.Alloc(0, KindApply, 0)
		if err != nil {
			t.Fatal(err)
		}
		var m edgeModel
		for step := 0; step < 60; step++ {
			id := VertexID(2 + rng.Intn(5))
			rk := ReqKind(rng.Intn(3))
			wasSpilled, reqWasSpilled := v.na == spilled, v.nr == spilled
			var op string
			switch rng.Intn(8) {
			case 0:
				n := rng.Intn(6)
				ids := make([]VertexID, n)
				for i := range ids {
					ids[i] = VertexID(2 + rng.Intn(5))
				}
				op = fmt.Sprintf("SetArgs(%v)", ids)
				v.SetArgs(ids...)
				m.args = append([]VertexID(nil), ids...)
				m.kinds = make([]ReqKind, n)
			case 1, 2:
				op = fmt.Sprintf("AddArg(%d, %v)", id, rk)
				v.AddArg(id, rk)
				m.args = append(m.args, id)
				m.kinds = append(m.kinds, rk)
			case 3:
				op = fmt.Sprintf("RemoveArg(%d)", id)
				gotRK, gotOK := v.RemoveArg(id)
				var wantRK ReqKind
				i := m.argIndex(id)
				if i >= 0 {
					wantRK = m.kinds[i]
					m.args = append(m.args[:i], m.args[i+1:]...)
					m.kinds = append(m.kinds[:i], m.kinds[i+1:]...)
				}
				if gotRK != wantRK || gotOK != (i >= 0) {
					t.Fatalf("seq %d step %d %s = (%v, %v), want (%v, %v)", seq, step, op, gotRK, gotOK, wantRK, i >= 0)
				}
			case 4:
				if len(m.args) == 0 {
					continue
				}
				i := rng.Intn(len(m.args))
				op = fmt.Sprintf("SetReqKindAt(%d, %v)", i, rk)
				v.SetReqKindAt(i, rk)
				m.kinds[i] = rk
			case 5:
				op = fmt.Sprintf("AddRequester(%d, %v)", id, rk)
				v.AddRequester(id, rk)
				m.reqs = append(m.reqs, Requester{Src: id, Kind: rk})
			case 6:
				op = fmt.Sprintf("RemoveRequester(%d)", id)
				got, want := v.RemoveRequester(id), false
				for i, r := range m.reqs {
					if r.Src == id {
						m.reqs = append(m.reqs[:i], m.reqs[i+1:]...)
						want = true
						break
					}
				}
				if got != want {
					t.Fatalf("seq %d step %d %s = %v, want %v", seq, step, op, got, want)
				}
			case 7:
				if rng.Intn(3) != 0 {
					continue // keep resets rarer, so the sets grow
				}
				op = "ResetFree"
				v.ResetFree()
				v.Kind = KindApply
				m = edgeModel{}
			}
			checkVertexEdges(t, fmt.Sprintf("seq %d step %d after %s", seq, step, op), v, &m)
			switch isSpilled := v.na == spilled; {
			case !wasSpilled && isSpilled:
				spills++
			case wasSpilled && !isSpilled:
				unspills++
			}
			switch isSpilled := v.nr == spilled; {
			case !reqWasSpilled && isSpilled:
				reqSpills++
			case reqWasSpilled && !isSpilled:
				reqUnspills++
			}
		}
		s.Release(v)
	}
	t.Logf("args: %d spills, %d returns inline; requesters: %d spills, %d returns inline",
		spills, unspills, reqSpills, reqUnspills)
	if spills == 0 || unspills == 0 || reqSpills == 0 || reqUnspills == 0 {
		t.Fatal("the sequences did not cross between inline and overflow storage both ways")
	}
}

func checkVertexEdges(t *testing.T, at string, v *Vertex, m *edgeModel) {
	t.Helper()
	if got := v.Args(); !slices.Equal(got, m.args) {
		t.Fatalf("%s: Args() = %v, want %v", at, got, m.args)
	}
	for i, want := range m.kinds {
		if got := v.ReqKindAt(i); got != want {
			t.Fatalf("%s: ReqKindAt(%d) = %v, want %v", at, i, got, want)
		}
	}
	if got := v.Requested(); !slices.Equal(got, m.reqs) {
		t.Fatalf("%s: Requested() = %v, want %v", at, got, m.reqs)
	}
	if got, want := v.TaskChildren(nil), m.taskChildren(); !slices.Equal(got, want) {
		t.Fatalf("%s: TaskChildren = %v, want %v", at, got, want)
	}
	if (v.na == spilled) != (len(m.args) > inlineArgs) || (v.nr == spilled) != (len(m.reqs) > inlineReqs) {
		t.Fatalf("%s: %d args and %d requesters stored with na=%d nr=%d", at, len(m.args), len(m.reqs), v.na, v.nr)
	}
	if v.ownsRecord() != (v.na == spilled || v.nr == spilled) {
		t.Fatalf("%s: owns a record = %v with na=%d nr=%d", at, v.ownsRecord(), v.na, v.nr)
	}
}

// TestVertexRewireAllocatesNothing: rewiring a reclaimed vertex allocates
// nothing, whether its edges fit inline or spill into an overflow record
// that an earlier spill left among the store's spares.
func TestVertexRewireAllocatesNothing(t *testing.T) {
	s := NewStore(Config{Partitions: 1, Serial: true})
	v, err := s.Alloc(0, KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		args, reqs int
	}{
		{"inline: 2 args, 1 requester", 2, 1},
		{"spilled, a spare record at hand: 5 args, 3 requesters", 5, 3},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			s.Release(v)
			w, err := s.Alloc(0, KindApply, 0)
			if err != nil || w != v {
				t.Fatalf("reallocation returned %v, %v; want v%d", w, err, v.ID)
			}
			v.SetArgs(2, 3)
			for i := 2; i < tc.args; i++ {
				v.AddArg(VertexID(2+i), ReqNone)
			}
			v.SetReqKindAt(1, ReqVital)
			for i := 0; i < tc.reqs; i++ {
				v.AddRequester(VertexID(7+i), ReqVital)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per rewire, want 0", tc.name, allocs)
		}
	}
}

// TestOverflowRecordLifetime: a vertex holds an overflow record exactly
// while a set is spilled: a spill takes one, and a record given back goes to
// the store's spares of the vertex's partition, from which the next spill
// takes it.
func TestOverflowRecordLifetime(t *testing.T) {
	s := NewStore(Config{Partitions: 2})
	v, err := s.Alloc(1, KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	v.Evaluating, v.WHNF = true, true
	v.SetArgs(2, 3, 4)
	rec := v.more
	if !v.ownsRecord() {
		t.Fatal("a spilled args set took no record")
	}
	s.Release(v)
	if v.Evaluating || v.WHNF || v.ownsRecord() {
		t.Fatalf("after Release: Evaluating %v, WHNF %v, owns record %v",
			v.Evaluating, v.WHNF, v.ownsRecord())
	}
	if got := s.shards[1].recs; len(got) != 1 || got[0] != rec {
		t.Fatalf("partition 1's spares = %v, want the released record", got)
	}
	w, _ := s.Alloc(1, KindApply, 0)
	w.AddRequester(5, ReqVital)
	w.AddRequester(6, ReqVital)
	if w.more != rec || len(s.shards[1].recs) != 0 {
		t.Fatal("a spill did not take the spare record")
	}
	w.RemoveRequester(5)
	if w.ownsRecord() || len(s.shards[1].recs) != 1 {
		t.Fatal("a record left empty was not given back")
	}
}
