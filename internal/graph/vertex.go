// Package graph implements the distributed computation graph of Hudak's
// PODC'83 model: vertices labeled with operators and values, the edge sets
// args(v), req-args_v(v), req-args_e(v) and requested(v), a per-partition
// free list, and the two per-vertex marking contexts (one for the M_R
// process marking from the root, one for the M_T process marking from
// tasks).
//
// The package provides only the raw, single-vertex state and the low-level
// connect/disconnect operations. The cooperating mutator primitives of the
// paper's Figure 4-2 (delete-reference, add-reference, expand-node), which
// must preserve the marking invariants, live in internal/core.
package graph

import (
	"fmt"

	"dgr/internal/lock"
)

// VertexID identifies a vertex in a Store. The zero value is NilVertex and
// never names a real vertex.
type VertexID uint32

// NilVertex is the absent vertex. It is used for "no parent" in marking
// trees and for unset references.
const NilVertex VertexID = 0

// Kind labels a vertex with its operator or value class, mirroring the
// paper's "vertices are labeled with primitive operators and values".
type Kind uint8

// Vertex kinds. KindFree marks members of the free set F.
const (
	KindFree    Kind = iota + 1 // member of the free list F
	KindApply                   // application node: args[0] = function, args[1] = argument
	KindComb                    // combinator leaf (S, K, I, B, C, Y, ...); Val holds the Comb code
	KindInt                     // integer literal; Val holds the value
	KindBool                    // boolean literal; Val is 0 or 1
	KindPrim                    // strict primitive operator leaf (+, -, if, cons, ...); Val holds the Prim code
	KindPrimApp                 // saturated (flattened) primitive application; Val holds the Prim code, Args the operands
	KindCons                    // pair cell: args[0] = head, args[1] = tail
	KindNil                     // empty list
	KindInd                     // indirection: args[0] is the real value
	KindHole                    // placeholder vertex (letrec knots, roots under construction)
	KindSuper                   // compiled supercombinator leaf; Val indexes the gm.Program table
)

var kindNames = [...]string{
	KindFree:    "free",
	KindApply:   "apply",
	KindComb:    "comb",
	KindInt:     "int",
	KindBool:    "bool",
	KindPrim:    "prim",
	KindPrimApp: "primapp",
	KindCons:    "cons",
	KindNil:     "nil",
	KindInd:     "ind",
	KindHole:    "hole",
	KindSuper:   "super",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ReqKind records, per outgoing args edge, how (and whether) the child's
// value has been requested. It realizes the paper's partition of args(x)
// into req-args_v(x), req-args_e(x) and the remaining req-args_r(x).
type ReqKind uint8

// Request kinds, ordered so that numeric comparison matches the paper's
// priority order (vital=3 > eager=2 > reserve=1). ReqNone means the edge is
// a plain data dependency whose value has not been demanded.
const (
	ReqNone  ReqKind = iota // in args(x) − req-args(x): the "reserve" remainder
	ReqEager                // in req-args_e(x)
	ReqVital                // in req-args_v(x)
)

// Priority returns the paper's integer priority for values requested through
// an edge of this kind: vital=3, eager=2, otherwise 1. This is the
// request-type(c,v) function of Figure 5-1.
func (rk ReqKind) Priority() uint8 {
	switch rk {
	case ReqVital:
		return PriorVital
	case ReqEager:
		return PriorEager
	default:
		return PriorReserve
	}
}

// String returns a short name for the request kind.
func (rk ReqKind) String() string {
	switch rk {
	case ReqEager:
		return "eager"
	case ReqVital:
		return "vital"
	default:
		return "none"
	}
}

// Marking priorities used by the M_R process (Figure 5-1).
const (
	PriorNone    uint8 = 0
	PriorReserve uint8 = 1
	PriorEager   uint8 = 2
	PriorVital   uint8 = 3
)

// MarkState is the per-context marking state of a vertex: the paper's
// unmarked / transient / marked triple (analogous to, but as §4.1 notes
// subtly different from, Dijkstra's white/gray/black).
type MarkState uint8

// Marking states. A vertex whose context epoch is stale is Unmarked
// regardless of the stored state.
const (
	Unmarked MarkState = iota
	Transient
	Marked
)

// String returns the lower-case name of the marking state.
func (s MarkState) String() string {
	switch s {
	case Transient:
		return "transient"
	case Marked:
		return "marked"
	default:
		return "unmarked"
	}
}

// MarkCtx is one marking context: the per-vertex fields the marking
// algorithm needs (mt-cnt, mt-par, the marking bits, and for M_R the
// priority). Each vertex carries two independent contexts, one for M_R and
// one for M_T, as §5.2 requires. The epoch implements O(1) global unmarking
// between the endless mark/restructure cycles: state is meaningful only when
// Epoch equals the collector's current epoch for that context. Epochs are 32
// bits and wrap; Renormalise keeps a stale one from ever aliasing the current
// one (DESIGN.md §8, "The wrap rule").
type MarkCtx struct {
	Epoch uint32
	MtCnt int32
	MtPar VertexID
	State MarkState
	Prior uint8
}

// StateAt returns the effective marking state at the given epoch.
func (c *MarkCtx) StateAt(epoch uint32) MarkState {
	if c.Epoch != epoch {
		return Unmarked
	}
	return c.State
}

// PriorAt returns the effective priority at the given epoch (PriorNone when
// the context is stale or unmarked).
func (c *MarkCtx) PriorAt(epoch uint32) uint8 {
	if c.Epoch != epoch || c.State == Unmarked {
		return PriorNone
	}
	return c.Prior
}

// Touch moves the context to Transient at the given epoch with the given
// marking-tree parent and priority, resetting mt-cnt if the epoch is new.
// It is the paper's touch(v) plus the bookkeeping of modify(v,par,prior).
func (c *MarkCtx) Touch(epoch uint32, par VertexID, prior uint8) {
	if c.Epoch != epoch {
		c.Epoch = epoch
		c.MtCnt = 0
	}
	c.State = Transient
	c.MtPar = par
	c.Prior = prior
}

// Ctx selects a marking context on a vertex.
type Ctx uint8

// The two marking contexts of §5: CtxR for process M_R (marking from the
// root), CtxT for process M_T (marking from tasks).
const (
	CtxR Ctx = iota
	CtxT
)

// String names the context.
func (c Ctx) String() string {
	if c == CtxT {
		return "T"
	}
	return "R"
}

// Requester is one element of requested(v): a vertex awaiting v's value,
// together with the kind of the request (needed to route the eventual reply
// and to restore the requester's bookkeeping). Answered is set when a
// completion of v takes the request to reply to it; the entry stays in
// requested(v), carrying the requester's task-reachability, until the reply
// is sent and the request removed, and a second completion skips it.
type Requester struct {
	Src      VertexID
	Kind     ReqKind
	Answered bool
}

// Vertex is a computation-graph node. All fields except ID and Part are
// guarded by the vertex lock (Lock, Unlock); tasks execute atomically with
// respect to the vertices they manipulate by holding the vertex locks, and
// callers that lock several vertices must do so in ascending ID order (see
// core.lockSet). A vertex of a serial store (Config.Serial) has one owner
// that runs one task at a time, which is the atomicity: its lock is serial,
// so Lock and Unlock do nothing, and the owner serializes every other
// reader.
//
// The edge sets are stored by size. Up to two args with their request
// kinds, and one requester, sit in the vertex itself; a set larger than
// that lives wholly in an overflow record, which the vertex holds only
// while it needs one (overflow.go). Args and Requested read either place
// without allocating; AddArg, RemoveArg, SetArgs, SetReqKindAt,
// AddRequester, RemoveRequester and ResetFree are the only writers, and
// they keep a set inline whenever it fits. The layout is 96 bytes, so a
// segment of 64 vertices and its in-use word, 6 152 bytes, costs the heap
// 6 528 (DESIGN.md §8, "The vertex on a diet").
type Vertex struct {
	// The vertex lock is embedded so that Lock and Unlock are its own,
	// inlined at every call site. Its mode bit, set as the vertex is
	// materialised, ends it at 12 bytes, and ID fills the 4 after it: the
	// bit costs the vertex no space.
	vertexLock

	// ID and Part are immutable after allocation.
	ID VertexID

	Val int64 // literal value, combinator code, or primitive code

	args [inlineArgs]VertexID  // args(v) while na <= inlineArgs
	reqs [inlineReqs]Requester // requested(v) while nr <= inlineReqs
	more *overflow             // the sets too large for the vertex

	// One 8-byte group: the partition, the label, the two edge-set counts,
	// the inline request kinds and the two reduction flags.
	Part uint16 // owning partition / processing element (< MaxPartitions)
	Kind Kind
	na   uint8 // inline arg count, or spilled
	nr   uint8 // inline requester count, or spilled
	rks  uint8 // request kinds of the inline args, 2 bits each
	// Evaluating is true while a reduction task is driving v toward WHNF,
	// so duplicate demands only register as requesters.
	Evaluating bool
	// WHNF records that v has been determined to be in weak head normal
	// form (set for under-applied applications and completed indirections,
	// whose WHNF-ness is not derivable from the kind alone).
	WHNF bool

	// RCtx and TCtx are the marking contexts for M_R and M_T.
	RCtx MarkCtx
	TCtx MarkCtx

	// Red holds the reduction engine's per-vertex allocation stamps. It is
	// opaque to the marking machinery.
	Red RedState
}

// Inline capacities of a vertex's edge sets. Every vertex reclaimed from
// the corpus had at most two args (an apply node, a cons cell, a binary
// primitive); a requester set rarely holds more than one.
const (
	inlineArgs = 2
	inlineReqs = 1
	spilled    = 0xff // na or nr: the set lives in the overflow record
)

// RedState holds the epochs at which a vertex left the free list, which the
// restructuring sweep and the deadlock detector compare with their cycle's.
type RedState struct {
	// AllocEpoch records the M_R epoch at which the vertex left the free
	// list; the restructuring sweep skips vertices allocated during the
	// cycle being swept (reduction axiom 1: R expands only from F).
	// Vertices claimed through Store.AllocStamped carry FreshAllocEpoch
	// until a splice primitive stamps the real epoch at wiring time.
	AllocEpoch uint32
	// AllocEpochT records the M_T epoch at allocation time; the deadlock
	// detector only inspects vertices that predate the cycle's M_T run
	// (vertices allocated later are trivially T-unmarked without being
	// deadlocked).
	AllocEpochT uint32
}

// FreshAllocEpoch is the alloc-epoch sentinel carried by a vertex from the
// moment it leaves the free list until a splice primitive (Rewrite,
// ExpandNode) stamps the real epochs at wiring time. No counter issues it,
// and EpochBefore reads it as after every real epoch, so reduction axiom 1
// shields the vertex from the restructuring sweep during the whole
// allocation limbo: a concurrently scanning sweep would otherwise observe a
// non-free, unmarked vertex with a stale epoch and reclaim it before the
// mutator ever wires it in.
const FreshAllocEpoch = ^uint32(0)

// The wrap rule (DESIGN.md §8). A marking context's epoch counter is 32 bits
// and never issues 0 or FreshAllocEpoch. Every other stamp of that context —
// an AllocEpoch or AllocEpochT, a MarkCtx.Epoch — lags the counter by less
// than 2³¹, because the marker renormalises (Store.Renormalise) at least once
// every RenormEvery epochs, renormalising leaves no lag above epochLagMax, and
// a stamp is written either with the current epoch (the splice primitives) or
// with the floor of the last pass (Store.Alloc), which lags by epochLagMax.
// So serial-number order (EpochBefore) never flips, and a stale MarkCtx.Epoch
// never comes round to equal the counter.
const (
	// epochLagMax is the most a stamp lags its counter after Renormalise.
	epochLagMax = 1 << 30
	// RenormEvery is how far a counter may advance between renormalisations.
	RenormEvery = 1 << 20
)

// EpochBefore reports whether stamp was issued before epoch, under the wrap
// rule: by serial-number order, FreshAllocEpoch after everything.
func EpochBefore(stamp, epoch uint32) bool {
	return stamp != FreshAllocEpoch && int32(stamp-epoch) < 0
}

// NextEpoch is the epoch a counter issues after e: e+1, stepping over 0 and
// FreshAllocEpoch.
func NextEpoch(e uint32) uint32 {
	e++
	if e == FreshAllocEpoch {
		e = 1
	}
	return e
}

// epochFloor is the stamp that lags the counter now by epochLagMax (or one
// more, where that would be the sentinel): still before now and, for a
// MarkCtx, still stale.
func epochFloor(now uint32) uint32 {
	f := now - epochLagMax
	if f == FreshAllocEpoch {
		f--
	}
	return f
}

// pullForward is a stamp of a context whose counter reads now, renormalised:
// one that lags by more than epochLagMax moves up to epochFloor(now).
func pullForward(stamp, now uint32) uint32 {
	if stamp == FreshAllocEpoch || now-stamp <= epochLagMax {
		return stamp
	}
	return epochFloor(now)
}

// renormalise pulls the vertex's stamps forward against the counters r and t
// (pullForward). The caller holds the vertex lock.
func (v *Vertex) renormalise(r, t uint32) {
	v.RCtx.Epoch = pullForward(v.RCtx.Epoch, r)
	v.TCtx.Epoch = pullForward(v.TCtx.Epoch, t)
	v.Red.AllocEpoch = pullForward(v.Red.AllocEpoch, r)
	v.Red.AllocEpochT = pullForward(v.Red.AllocEpochT, t)
}

// IsValueLocked reports whether the vertex already holds its ultimate
// value (weak head normal form). Such a vertex awaits nothing, so it can
// never be deadlocked — the paper's deadlock is a subgraph "in which task
// activity has ceased, yet the subgraph's value is being awaited". The
// caller must hold the vertex lock.
func (v *Vertex) IsValueLocked() bool {
	switch v.Kind {
	case KindInt, KindBool, KindNil, KindCons, KindComb, KindPrim, KindSuper:
		return true
	case KindApply, KindPrimApp, KindInd:
		return v.WHNF
	default:
		return false
	}
}

// vertexLock names the vertex's embedded lock.
type vertexLock = lock.Mutex

// CtxOf returns the requested marking context. The caller must hold the
// vertex lock (or otherwise guarantee exclusion) to mutate it.
func (v *Vertex) CtxOf(c Ctx) *MarkCtx {
	if c == CtxT {
		return &v.TCtx
	}
	return &v.RCtx
}

// Args returns args(v) in order. The slice aliases the vertex's storage:
// it is valid until the next write to the vertex's args.
func (v *Vertex) Args() []VertexID {
	if v.na <= inlineArgs {
		return v.args[:v.na]
	}
	return v.more.args
}

// ReqKindAt returns the request kind of the i-th arg edge.
func (v *Vertex) ReqKindAt(i int) ReqKind {
	if v.na <= inlineArgs {
		if uint(i) >= uint(v.na) {
			panic(fmt.Sprintf("graph: ReqKindAt(%d) of %d args", i, v.na))
		}
		return ReqKind(v.rks >> (2 * i) & 3)
	}
	return v.more.kinds[i]
}

// SetReqKindAt reclassifies the i-th arg edge.
func (v *Vertex) SetReqKindAt(i int, rk ReqKind) {
	if v.na <= inlineArgs {
		if uint(i) >= uint(v.na) {
			panic(fmt.Sprintf("graph: SetReqKindAt(%d) of %d args", i, v.na))
		}
		v.rks = v.rks&^(3<<(2*i)) | uint8(rk)<<(2*i)
		return
	}
	v.more.kinds[i] = rk
}

// SetArgs replaces args(v) with ids, in order, every edge unrequested.
// ids may alias Args().
func (v *Vertex) SetArgs(ids ...VertexID) {
	if len(ids) <= inlineArgs {
		wasSpilled := v.na == spilled
		copy(v.args[:], ids)
		clear(v.args[len(ids):])
		v.na = uint8(len(ids))
		v.rks = 0
		if wasSpilled {
			v.more.args, v.more.kinds = v.more.args[:0], v.more.kinds[:0]
			v.dropIdleRecord()
		}
		return
	}
	o := v.overflowRec()
	o.args = append(o.args[:0], ids...)
	o.kinds = o.kinds[:0]
	for range ids {
		o.kinds = append(o.kinds, ReqNone)
	}
	v.args = [inlineArgs]VertexID{}
	v.na, v.rks = spilled, 0
}

// ArgIndex returns the first index of c in args(v), or -1.
func (v *Vertex) ArgIndex(c VertexID) int {
	for i, a := range v.Args() {
		if a == c {
			return i
		}
	}
	return -1
}

// HasArg reports whether c ∈ args(v).
func (v *Vertex) HasArg(c VertexID) bool { return v.ArgIndex(c) >= 0 }

// AddArg appends c to args(v) with the given request kind.
func (v *Vertex) AddArg(c VertexID, rk ReqKind) {
	switch {
	case v.na < inlineArgs:
		v.args[v.na] = c
		v.rks |= uint8(rk) << (2 * v.na)
		v.na++
	case v.na == inlineArgs: // the set outgrows the vertex
		o := v.overflowRec()
		o.args = append(o.args[:0], v.args[0], v.args[1], c)
		o.kinds = append(o.kinds[:0], ReqKind(v.rks&3), ReqKind(v.rks>>2&3), rk)
		v.args = [inlineArgs]VertexID{}
		v.na, v.rks = spilled, 0
	default:
		v.more.args = append(v.more.args, c)
		v.more.kinds = append(v.more.kinds, rk)
	}
}

// RemoveArg removes the first occurrence of c from args(v), returning the
// request kind it had and whether it was present. Order of remaining args is
// preserved (argument order is significant for apply nodes).
func (v *Vertex) RemoveArg(c VertexID) (ReqKind, bool) {
	i := v.ArgIndex(c)
	if i < 0 {
		return ReqNone, false
	}
	rk := v.ReqKindAt(i)
	if v.na <= inlineArgs {
		// Shift the later edge, if any, down over slot i.
		low := v.rks & (1<<(2*i) - 1)
		v.rks = low | v.rks>>(2*(i+1))<<(2*i)
		copy(v.args[i:], v.args[i+1:])
		v.na--
		v.args[v.na] = NilVertex
		return rk, true
	}
	o := v.more
	o.args = append(o.args[:i], o.args[i+1:]...)
	o.kinds = append(o.kinds[:i], o.kinds[i+1:]...)
	if len(o.args) == inlineArgs { // the set fits again
		v.args = [inlineArgs]VertexID{o.args[0], o.args[1]}
		v.rks = uint8(o.kinds[0]) | uint8(o.kinds[1])<<2
		v.na = inlineArgs
		o.args, o.kinds = o.args[:0], o.kinds[:0]
		v.dropIdleRecord()
	}
	return rk, true
}

// SetReqKind reclassifies the edge v→c (first occurrence), reporting whether
// the edge exists.
func (v *Vertex) SetReqKind(c VertexID, rk ReqKind) bool {
	i := v.ArgIndex(c)
	if i < 0 {
		return false
	}
	v.SetReqKindAt(i, rk)
	return true
}

// ReqKindOf returns the request kind of edge v→c, or ReqNone if absent.
func (v *Vertex) ReqKindOf(c VertexID) ReqKind {
	i := v.ArgIndex(c)
	if i < 0 {
		return ReqNone
	}
	return v.ReqKindAt(i)
}

// Requested returns requested(v) in the order the requests arrived. The
// slice aliases the vertex's storage: an element's Kind may be written
// through it, and it is valid until the next AddRequester or
// RemoveRequester.
func (v *Vertex) Requested() []Requester {
	if v.nr <= inlineReqs {
		return v.reqs[:v.nr]
	}
	return v.more.reqs
}

// AddRequester records that src requested v's value.
func (v *Vertex) AddRequester(src VertexID, rk ReqKind) {
	r := Requester{Src: src, Kind: rk}
	switch {
	case v.nr < inlineReqs:
		v.reqs[v.nr] = r
		v.nr++
	case v.nr == inlineReqs: // the set outgrows the vertex
		o := v.overflowRec()
		o.reqs = append(o.reqs[:0], v.reqs[0], r)
		v.reqs = [inlineReqs]Requester{}
		v.nr = spilled
	default:
		v.more.reqs = append(v.more.reqs, r)
	}
}

// RemoveRequester removes the first request by src, reporting whether one
// was present. This is the "dereference" half of §3.2: removing x from
// requested(y).
func (v *Vertex) RemoveRequester(src VertexID) bool {
	for i, r := range v.Requested() {
		if r.Src != src {
			continue
		}
		if v.nr <= inlineReqs {
			v.reqs = [inlineReqs]Requester{}
			v.nr = 0
			return true
		}
		o := v.more
		o.reqs = append(o.reqs[:i], o.reqs[i+1:]...)
		if len(o.reqs) == inlineReqs { // the set fits again
			v.reqs = [inlineReqs]Requester{o.reqs[0]}
			v.nr = inlineReqs
			o.reqs = o.reqs[:0]
			v.dropIdleRecord()
		}
		return true
	}
	return false
}

// HasRequester reports whether src ∈ requested(v).
func (v *Vertex) HasRequester(src VertexID) bool {
	for _, r := range v.Requested() {
		if r.Src == src {
			return true
		}
	}
	return false
}

// TaskChildren appends to dst the vertices M_T traces through from v:
// requested(v) ∪ (args(v) − req-args(v)), per Figure 5-3.
func (v *Vertex) TaskChildren(dst []VertexID) []VertexID {
	for _, r := range v.Requested() {
		dst = append(dst, r.Src)
	}
	for i, a := range v.Args() {
		if v.ReqKindAt(i) == ReqNone {
			dst = append(dst, a)
		}
	}
	return dst
}

// ResetFree reinitializes the vertex as a member of F, clearing edges and
// reduction state but preserving marking context epochs (a stale epoch is
// equivalent to unmarked), so a reclaimed and reallocated vertex can never
// leak a stale context. Its overflow record, if it has one, goes back to
// its store's spares.
func (v *Vertex) ResetFree() {
	v.Kind = KindFree
	v.Val = 0
	v.args = [inlineArgs]VertexID{}
	v.reqs = [inlineReqs]Requester{}
	v.na, v.nr, v.rks = 0, 0, 0
	v.Evaluating, v.WHNF = false, false
	v.Red = RedState{}
	if v.ownsRecord() {
		v.releaseRecord()
	}
}

// String renders a compact description for diagnostics.
func (v *Vertex) String() string {
	return fmt.Sprintf("v%d[%s part=%d val=%d args=%v]", v.ID, v.Kind, v.Part, v.Val, v.Args())
}
