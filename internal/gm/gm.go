// Package gm is the compiled-reduction backend: a G-machine-style
// instruction set for supercombinator bodies. Programs in internal/lang
// are lambda-lifted (lang.Lift) into supercombinators whose bodies compile
// here to short instruction sequences; the reduction engine executes one
// whole sequence per saturated redex, building/updating the result
// subgraph in a single task execution instead of one combinator rewrite at
// a time.
//
// The instructions only ever construct standard graph vertices (apply,
// primapp, literal leaves, letrec knots) wired with the ordinary
// args/req-args discipline, so the collector's marking invariants, the
// deadlock detector, and the invariant checker all work unchanged on
// compiled runs. The engine applies the whole instruction sequence's
// wiring inside one cooperating core.Mutator.Rewrite.
package gm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Op is an instruction opcode. The machine is a small stack machine over
// vertex IDs: Push* operands push one vertex (existing or freshly
// allocated), Mk* pop children and push a fresh interior vertex, and
// exactly one terminal Update* rewrites the redex root.
type Op uint8

// Opcodes.
const (
	OpPushArg       Op = iota + 1 // push operand A of the redex
	OpPushLocal                   // push local slot A (a letrec knot of this invocation)
	OpPushSuper                   // push a fresh supercombinator leaf for program index A
	OpPushComb                    // push a fresh combinator leaf (A holds the graph.Comb code)
	OpPushPrim                    // push a fresh primitive leaf (A holds the graph.Prim code)
	OpPushInt                     // push a fresh integer leaf with value A
	OpPushBool                    // push a fresh boolean leaf (A is 0 or 1)
	OpPushNil                     // push a fresh empty-list leaf
	OpMkApp                       // pop arg then fun, push a fresh apply(fun, arg)
	OpMkPrimApp                   // pop B operands, push a fresh flattened primapp of prim A
	OpMkHole                      // allocate a fresh hole into local slot A (no stack effect)
	OpKnot                        // pop target; local slot A's hole becomes an indirection to it
	OpUpdate                      // terminal: pop result; the root becomes an indirection to it
	OpUpdateApp                   // terminal: pop arg then fun; the root becomes apply(fun, arg)
	OpUpdatePrimApp               // terminal: pop B operands; the root becomes a primapp of prim A
	OpUpdateLeaf                  // terminal: the root becomes a leaf of kind A with value B
)

var opNames = [...]string{
	OpPushArg:       "pusharg",
	OpPushLocal:     "pushlocal",
	OpPushSuper:     "pushsuper",
	OpPushComb:      "pushcomb",
	OpPushPrim:      "pushprim",
	OpPushInt:       "pushint",
	OpPushBool:      "pushbool",
	OpPushNil:       "pushnil",
	OpMkApp:         "mkapp",
	OpMkPrimApp:     "mkprimapp",
	OpMkHole:        "mkhole",
	OpKnot:          "knot",
	OpUpdate:        "update",
	OpUpdateApp:     "updateapp",
	OpUpdatePrimApp: "updateprimapp",
	OpUpdateLeaf:    "updateleaf",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. The meaning of A and B depends on the opcode.
type Instr struct {
	Op   Op
	A, B int64
}

// Super is one compiled supercombinator.
type Super struct {
	Name    string
	Arity   int
	Code    []Instr
	NLocals int // letrec slots one invocation needs
	MaxHigh int // maximum stack height during execution
	// Strict marks parameters the body certainly forces on every path to
	// WHNF (Mycroft-style analysis over the lifted program). The engine
	// demands strict operands to WHNF before executing the body, which
	// lets execution constant-fold arithmetic, comparisons, and branch
	// selection over known operand values instead of building the
	// corresponding primapp subgraphs.
	Strict []bool
}

// Program is a machine's supercombinator table. Compilation appends;
// KindSuper leaves reference entries by index, so indices are stable for
// the machine's lifetime. Reads are lock-free (the engine resolves supers
// on the reduction hot path, possibly from many PEs at once).
type Program struct {
	mu     sync.Mutex
	supers atomic.Value // []*Super; appended in place under mu, header republished
}

// NewProgram returns an empty program table.
func NewProgram() *Program {
	p := &Program{}
	p.supers.Store([]*Super(nil))
	return p
}

// AddBatch appends a group of supercombinators atomically and returns the
// index of the first (the group occupies base..base+len-1, letting a
// compile resolve mutually recursive references before publishing). The
// table grows in place: a reader holding an earlier header never indexes past
// its own length, so only the slots it cannot see are written.
func (p *Program) AddBatch(supers []*Super) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.supers.Load().([]*Super)
	p.supers.Store(append(cur, supers...))
	return len(cur)
}

// Super resolves a table index, or nil when out of range.
func (p *Program) Super(i int) *Super {
	cur := p.supers.Load().([]*Super)
	if i < 0 || i >= len(cur) {
		return nil
	}
	return cur[i]
}

// Len reports the number of registered supercombinators.
func (p *Program) Len() int {
	return len(p.supers.Load().([]*Super))
}
