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
	KindStr                     // interned string literal; Val indexes the store's string table
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
	KindStr:     "str",
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
// Epoch equals the collector's current epoch for that context.
type MarkCtx struct {
	Epoch uint64
	MtCnt int32
	MtPar VertexID
	State MarkState
	Prior uint8
}

// StateAt returns the effective marking state at the given epoch.
func (c *MarkCtx) StateAt(epoch uint64) MarkState {
	if c.Epoch != epoch {
		return Unmarked
	}
	return c.State
}

// PriorAt returns the effective priority at the given epoch (PriorNone when
// the context is stale or unmarked).
func (c *MarkCtx) PriorAt(epoch uint64) uint8 {
	if c.Epoch != epoch || c.State == Unmarked {
		return PriorNone
	}
	return c.Prior
}

// Touch moves the context to Transient at the given epoch with the given
// marking-tree parent and priority, resetting mt-cnt if the epoch is new.
// It is the paper's touch(v) plus the bookkeeping of modify(v,par,prior).
func (c *MarkCtx) Touch(epoch uint64, par VertexID, prior uint8) {
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
// and to restore the requester's bookkeeping).
type Requester struct {
	Src  VertexID
	Kind ReqKind
}

// Vertex is a computation-graph node. All fields except ID and Part are
// guarded by the vertex lock (Lock, Unlock); tasks execute atomically with
// respect to the vertices they manipulate by holding the vertex locks, and
// callers that lock several vertices must do so in ascending ID order (see
// core.lockSet). A vertex of a serial store (Config.Serial) has one owner
// that runs one task at a time, which is the atomicity: its lock is serial,
// so Lock and Unlock do nothing, and the owner serializes every other
// reader.
type Vertex struct {
	// The vertex lock is embedded so that Lock and Unlock are its own,
	// inlined at every call site. Its mode bit, set as the vertex is
	// materialised, ends it at 12 bytes, and ID fills the 4 after it: the
	// bit costs the vertex no space.
	vertexLock

	// ID and Part are immutable after allocation.
	ID   VertexID
	Part int // owning partition / processing element

	Kind Kind
	Val  int64 // literal value, combinator code, or primitive code

	// Args is the ordered args(v) edge list; ReqKinds is parallel to it and
	// classifies each edge as vital / eager / not-requested.
	Args     []VertexID
	ReqKinds []ReqKind

	// Requested is the paper's requested(v): vertices that asked for v's
	// value and have not been replied to.
	Requested []Requester

	// RCtx and TCtx are the marking contexts for M_R and M_T.
	RCtx MarkCtx
	TCtx MarkCtx

	// Red holds the reduction engine's per-vertex bookkeeping. It is
	// opaque to the marking machinery.
	Red RedState
}

// RedState is the reduction engine's per-vertex scratch state. It lives on
// the vertex because in the paper's model a vertex carries the local status
// of its own evaluation.
type RedState struct {
	// Evaluating is true while a reduction task is driving v toward WHNF,
	// so duplicate demands only register as requesters.
	Evaluating bool
	// Pending counts argument values v is waiting for.
	Pending int
	// WHNF records that v has been determined to be in weak head normal
	// form (set for under-applied applications and completed
	// indirections, whose WHNF-ness is not derivable from the kind alone).
	WHNF bool
	// AllocEpoch records the M_R epoch at which the vertex left the free
	// list; the restructuring sweep skips vertices allocated during the
	// cycle being swept (reduction axiom 1: R expands only from F).
	// Vertices claimed through Store.AllocStamped carry FreshAllocEpoch
	// until a splice primitive stamps the real epoch at wiring time.
	AllocEpoch uint64
	// AllocEpochT records the M_T epoch at allocation time; the deadlock
	// detector only inspects vertices that predate the cycle's M_T run
	// (vertices allocated later are trivially T-unmarked without being
	// deadlocked).
	AllocEpochT uint64
	// Trace and TraceSpan carry the causal-lineage context of the traced
	// task currently driving this vertex (0 = untraced): tasks the engine
	// spawns from here inherit Trace and point at TraceSpan as their
	// causal parent. Like the rest of RedState the fields are opaque to
	// the marking machinery, and ResetFree zeroes them with the struct, so
	// a reclaimed-and-reallocated vertex can never leak a stale context.
	Trace     uint64
	TraceSpan uint32
}

// FreshAllocEpoch is the alloc-epoch sentinel carried by a vertex from the
// moment it leaves the free list until a splice primitive (Rewrite,
// ExpandNode) stamps the real epochs at wiring time. It compares greater
// than every real epoch, so reduction axiom 1 shields the vertex from the
// restructuring sweep during the whole allocation limbo: a concurrently
// scanning sweep would otherwise observe a non-free, unmarked vertex with a
// stale epoch and reclaim it before the mutator ever wires it in.
const FreshAllocEpoch = ^uint64(0)

// IsValueLocked reports whether the vertex already holds its ultimate
// value (weak head normal form). Such a vertex awaits nothing, so it can
// never be deadlocked — the paper's deadlock is a subgraph "in which task
// activity has ceased, yet the subgraph's value is being awaited". The
// caller must hold the vertex lock.
func (v *Vertex) IsValueLocked() bool {
	switch v.Kind {
	case KindInt, KindBool, KindStr, KindNil, KindCons, KindComb, KindPrim,
		KindSuper:
		return true
	case KindApply, KindPrimApp, KindInd:
		return v.Red.WHNF
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

// ArgIndex returns the first index of c in Args, or -1.
func (v *Vertex) ArgIndex(c VertexID) int {
	for i, a := range v.Args {
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
	v.Args = append(v.Args, c)
	v.ReqKinds = append(v.ReqKinds, rk)
}

// RemoveArg removes the first occurrence of c from args(v), returning the
// request kind it had and whether it was present. Order of remaining args is
// preserved (argument order is significant for apply nodes).
func (v *Vertex) RemoveArg(c VertexID) (ReqKind, bool) {
	i := v.ArgIndex(c)
	if i < 0 {
		return ReqNone, false
	}
	rk := v.ReqKinds[i]
	v.Args = append(v.Args[:i], v.Args[i+1:]...)
	v.ReqKinds = append(v.ReqKinds[:i], v.ReqKinds[i+1:]...)
	return rk, true
}

// SetReqKind reclassifies the edge v→c (first occurrence), reporting whether
// the edge exists.
func (v *Vertex) SetReqKind(c VertexID, rk ReqKind) bool {
	i := v.ArgIndex(c)
	if i < 0 {
		return false
	}
	v.ReqKinds[i] = rk
	return true
}

// ReqKindOf returns the request kind of edge v→c, or ReqNone if absent.
func (v *Vertex) ReqKindOf(c VertexID) ReqKind {
	i := v.ArgIndex(c)
	if i < 0 {
		return ReqNone
	}
	return v.ReqKinds[i]
}

// AddRequester records that src requested v's value.
func (v *Vertex) AddRequester(src VertexID, rk ReqKind) {
	v.Requested = append(v.Requested, Requester{Src: src, Kind: rk})
}

// RemoveRequester removes the first request by src, reporting whether one
// was present. This is the "dereference" half of §3.2: removing x from
// requested(y).
func (v *Vertex) RemoveRequester(src VertexID) bool {
	for i, r := range v.Requested {
		if r.Src == src {
			v.Requested = append(v.Requested[:i], v.Requested[i+1:]...)
			return true
		}
	}
	return false
}

// HasRequester reports whether src ∈ requested(v).
func (v *Vertex) HasRequester(src VertexID) bool {
	for _, r := range v.Requested {
		if r.Src == src {
			return true
		}
	}
	return false
}

// TaskChildren appends to dst the vertices M_T traces through from v:
// requested(v) ∪ (args(v) − req-args(v)), per Figure 5-3.
func (v *Vertex) TaskChildren(dst []VertexID) []VertexID {
	for _, r := range v.Requested {
		dst = append(dst, r.Src)
	}
	for i, a := range v.Args {
		if v.ReqKinds[i] == ReqNone {
			dst = append(dst, a)
		}
	}
	return dst
}

// ResetFree reinitializes the vertex as a member of F, clearing edges and
// reduction state but preserving marking context epochs (a stale epoch is
// equivalent to unmarked).
func (v *Vertex) ResetFree() {
	v.Kind = KindFree
	v.Val = 0
	v.Args = v.Args[:0]
	v.ReqKinds = v.ReqKinds[:0]
	v.Requested = v.Requested[:0]
	v.Red = RedState{}
}

// String renders a compact description for diagnostics.
func (v *Vertex) String() string {
	return fmt.Sprintf("v%d[%s part=%d val=%d args=%v]", v.ID, v.Kind, v.Part, v.Val, v.Args)
}
