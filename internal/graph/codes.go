package graph

import "fmt"

// Comb enumerates the combinators used by the reduction engine. The lang
// compiler performs Turner-style bracket abstraction into this basis; the
// reduce package implements one graph-rewrite rule per combinator, each
// expressed through the cooperating mutator primitives.
type Comb int64

// The combinator basis. S' (SP), B' (BP) and C' (CP) are Turner's optimized
// three-argument director combinators; Y builds cyclic recursion knots.
const (
	CombS Comb = iota + 1
	CombK
	CombI
	CombB
	CombC
	CombSP  // S' f g x y -> (f (g y)) (x y) applied under a shared head
	CombBP  // B' f g x y -> f g (x y)
	CombCP  // C' f g x y -> f (g y) x
	CombY   // Y f -> f (Y f), implemented as a cyclic knot
	CombEnd // one past the last code
)

// combs says each combinator once: conventional name and the number of
// arguments it consumes. The rewrite rules are reduce's contract.
var combs = [...]struct {
	name  string
	arity int
}{
	CombS: {"S", 3}, CombK: {"K", 2}, CombI: {"I", 1}, CombB: {"B", 3}, CombC: {"C", 3},
	CombSP: {"S'", 4}, CombBP: {"B'", 4}, CombCP: {"C'", 4}, CombY: {"Y", 1},
}

// String returns the conventional combinator name.
func (c Comb) String() string {
	if c > 0 && int(c) < len(combs) {
		return combs[c].name
	}
	return fmt.Sprintf("comb(%d)", int64(c))
}

// Arity returns the number of arguments the combinator consumes.
func (c Comb) Arity() int {
	if c > 0 && int(c) < len(combs) {
		return combs[c].arity
	}
	return 0
}

// Prim enumerates the primitive operators. In the paper's model an operator
// is which arguments it vitally requests and what it rewrites to; the prims
// table says both, once, for every primitive.
type Prim int64

// Primitive operator codes.
const (
	PrimAdd Prim = iota + 1
	PrimSub
	PrimMul
	PrimDiv
	PrimMod
	PrimNeg
	PrimEq
	PrimNe
	PrimLt
	PrimLe
	PrimGt
	PrimGe
	PrimAnd // strict boolean and
	PrimOr  // strict boolean or
	PrimNot
	PrimIf      // if c t e: strict in c only; t and e may be eagerly requested
	PrimCons    // lazy pair constructor
	PrimHead    // strict in its pair argument
	PrimTail    // strict in its pair argument
	PrimIsNil   // strict list test
	PrimIsPair  // strict pair test
	PrimSeq     // seq a b: force a, return b
	PrimSpec    // spec a b: eagerly (speculatively) request a, return b
	PrimPar     // par a b: eagerly request a AND b vitally in parallel, return b after both
	PrimBottom  // ⊥: a vertex whose demand never returns (self-dependency)
	PrimIsBotOp // is-bottom probe from footnote 5 (diagnostic; resolved by the deadlock detector)
	PrimEnd     // one past the last code: for p := Prim(1); p < PrimEnd; p++
)

// primRow is everything the system knows about one primitive. A value
// primitive (apply != nil) takes operand literals of kind operand and is
// reduced by apply alone, by the engines' shared step and by the compiled
// engine's constant folder; a structural primitive (if, cons, head, ...)
// rewrites graph shape and has its own step function in reduce.
type primRow struct {
	name    string // display name
	builtin string // surface name the compilers resolve; "" = syntax only (if)
	arity   int
	// needed has bit i set when WHNF of the saturated application certainly
	// forces argument i: the demand lang's strictness analysis may hoist into
	// a caller. A primitive that claims nothing is merely conservative.
	needed  uint8
	operand Kind
	// apply computes the result literal (kind, val) from the operand values
	// (unary: y is 0; booleans are 0 or 1), or names the runtime error that
	// leaves the application stuck. Value primitives take one or two operands.
	apply func(x, y int64) (kind Kind, val int64, err string)
}

func intVal(v int64) (Kind, int64, string) { return KindInt, v, "" }

func boolVal(b bool) (Kind, int64, string) {
	if b {
		return KindBool, 1, ""
	}
	return KindBool, 0, ""
}

var prims = [PrimEnd]primRow{
	PrimAdd: {"+", "__add", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return intVal(x + y) }},
	PrimSub: {"-", "__sub", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return intVal(x - y) }},
	PrimMul: {"*", "__mul", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return intVal(x * y) }},
	PrimDiv: {"/", "__div", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) {
		if y == 0 {
			return 0, 0, "division by zero"
		}
		return intVal(x / y)
	}},
	PrimMod: {"%", "__mod", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) {
		if y == 0 {
			return 0, 0, "modulo by zero"
		}
		return intVal(x % y)
	}},
	PrimNeg: {"neg", "neg", 1, 0b1, KindInt, func(x, _ int64) (Kind, int64, string) { return intVal(-x) }},
	PrimEq:  {"=", "__eq", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return boolVal(x == y) }},
	PrimNe:  {"/=", "__ne", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return boolVal(x != y) }},
	PrimLt:  {"<", "__lt", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return boolVal(x < y) }},
	PrimLe:  {"<=", "__le", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return boolVal(x <= y) }},
	PrimGt:  {">", "__gt", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return boolVal(x > y) }},
	PrimGe:  {">=", "__ge", 2, 0b11, KindInt, func(x, y int64) (Kind, int64, string) { return boolVal(x >= y) }},
	PrimAnd: {"and", "and", 2, 0b11, KindBool, func(x, y int64) (Kind, int64, string) { return boolVal(x != 0 && y != 0) }},
	PrimOr:  {"or", "or", 2, 0b11, KindBool, func(x, y int64) (Kind, int64, string) { return boolVal(x != 0 || y != 0) }},
	PrimNot: {"not", "not", 1, 0b1, KindBool, func(x, _ int64) (Kind, int64, string) { return boolVal(x == 0) }},

	PrimIf:     {name: "if", arity: 3, needed: 0b001},
	PrimCons:   {name: "cons", builtin: "cons", arity: 2},
	PrimHead:   {name: "head", builtin: "head", arity: 1, needed: 0b1},
	PrimTail:   {name: "tail", builtin: "tail", arity: 1, needed: 0b1},
	PrimIsNil:  {name: "nil?", builtin: "isnil", arity: 1, needed: 0b1},
	PrimIsPair: {name: "pair?", builtin: "ispair", arity: 1, needed: 0b1},
	PrimSeq:    {name: "seq", builtin: "seq", arity: 2, needed: 0b11},
	PrimSpec:   {name: "spec", builtin: "spec", arity: 2},
	PrimPar:    {name: "par", builtin: "par", arity: 2, needed: 0b11},
	PrimBottom: {name: "bottom", builtin: "bottom"},
	// is-bottom demands its operand but claims nothing: its deadlock probe
	// must be registered by the primapp itself before the operand is
	// demanded, so hoisting the demand to a caller would change which vertex
	// the verdict lands on.
	PrimIsBotOp: {name: "is-bottom", builtin: "isbottom", arity: 1},
}

// row returns p's table row, the zero row for an unknown code.
func (p Prim) row() *primRow {
	if p > 0 && p < PrimEnd {
		return &prims[p]
	}
	return &prims[0]
}

// String returns the display name of the primitive.
func (p Prim) String() string {
	if name := p.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("prim(%d)", int64(p))
}

// Builtin returns the surface name the compilers resolve to the primitive,
// "" for one that only syntax reaches (if).
func (p Prim) Builtin() string { return p.row().builtin }

// Arity returns the number of arguments the primitive consumes.
func (p Prim) Arity() int { return p.row().arity }

// Needs reports whether WHNF of the saturated application certainly forces
// argument i.
func (p Prim) Needs(i int) bool { return p.row().needed>>i&1 != 0 }

// Operand returns the literal kind a value primitive requires of every
// operand, 0 for a structural primitive.
func (p Prim) Operand() Kind { return p.row().operand }

// Apply computes a value primitive (Operand() != 0) over its operand values:
// the result literal, or the name of the runtime error.
func (p Prim) Apply(x, y int64) (kind Kind, val int64, err string) {
	return p.row().apply(x, y)
}
