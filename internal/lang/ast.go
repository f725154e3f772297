package lang

import (
	"fmt"
	"strings"
)

// Expr is a surface-syntax expression: a pointer to one of the node types
// below. Every pass reads the AST and builds what it outputs anew, and none
// writes a node, so a node may be shared, within a tree and between trees:
// the leaves below are shared by every tree, and the nodes one compile
// builds come from slabs that live as long as its tree (nodes).
type Expr interface {
	exprNode()
	String() string
}

// Var references a bound name or builtin.
type Var struct{ Name string }

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// BoolLit is a boolean literal.
type BoolLit struct{ Val bool }

// NilLit is the empty list [].
type NilLit struct{}

// Lam is a lambda abstraction of one or more parameters.
type Lam struct {
	Params []string
	Body   Expr
}

// App is a function application.
type App struct{ Fun, Arg Expr }

// If is the conditional.
type If struct{ Cond, Then, Else Expr }

// Bind is one let binding.
type Bind struct {
	Name string
	Val  Expr
}

// Let is a mutually recursive let ... in.
type Let struct {
	Binds []Bind
	Body  Expr
}

func (*Var) exprNode()     {}
func (*IntLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*NilLit) exprNode()  {}
func (*Lam) exprNode()     {}
func (*App) exprNode()     {}
func (*If) exprNode()      {}
func (*Let) exprNode()     {}

func (e *Var) String() string    { return e.Name }
func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Val) }
func (e *BoolLit) String() string {
	if e.Val {
		return "true"
	}
	return "false"
}
func (*NilLit) String() string { return "[]" }
func (e *Lam) String() string {
	return fmt.Sprintf("(\\%s. %s)", strings.Join(e.Params, " "), e.Body)
}
func (e *App) String() string { return fmt.Sprintf("(%s %s)", e.Fun, e.Arg) }
func (e *If) String() string {
	return fmt.Sprintf("(if %s then %s else %s)", e.Cond, e.Then, e.Else)
}
func (e *Let) String() string {
	parts := make([]string, len(e.Binds))
	for i, b := range e.Binds {
		parts[i] = fmt.Sprintf("%s = %s", b.Name, b.Val)
	}
	return fmt.Sprintf("(let %s in %s)", strings.Join(parts, "; "), e.Body)
}

// Leaves shared by every tree.
var (
	trueLit  = &BoolLit{Val: true}
	falseLit = &BoolLit{Val: false}
	nilLit   = &NilLit{}
	consVar  = &Var{Name: "cons"}
)

// apps left-folds applications.
func apps(f Expr, args ...Expr) Expr {
	for _, a := range args {
		f = &App{Fun: f, Arg: a}
	}
	return f
}

// A slab not reserved at its size starts at minSlab values and doubles up
// to maxSlab, so a small program leaves little of its last slab unused and
// a large one takes few slabs.
const (
	minSlab = 4
	maxSlab = 32
)

// slab hands out the values of one compile a slab at a time. A full slab is
// left to the values that point into it.
type slab[T any] []T

// new returns a fresh zero value from the slab.
func (s *slab[T]) new() *T {
	if len(*s) == cap(*s) {
		s.refill(1)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// clone copies xs into the slab and returns the copy, capped at its length
// so that no append through it reaches the next value of the slab.
func (s *slab[T]) clone(xs []T) []T {
	if cap(*s)-len(*s) < len(xs) {
		s.refill(len(xs))
	}
	lo := len(*s)
	*s = append(*s, xs...)
	return s.run(lo)
}

// add appends x to the run of values that starts at (*s)[lo], moving the
// run to a new slab if this one is full, and returns where the run starts.
// The new slab has room for the run twice over, so that a run longer than
// any slab moves a logarithmic number of times, not once per value.
func (s *slab[T]) add(lo int, x T) int {
	if len(*s) == cap(*s) {
		run := (*s)[lo:]
		s.refill(2 * (len(run) + 1))
		*s = append(*s, run...)
		lo = 0
	}
	*s = append(*s, x)
	return lo
}

// run returns the values from (*s)[lo] on, capped as clone caps them.
func (s *slab[T]) run(lo int) []T { return (*s)[lo:len(*s):len(*s)] }

// reserve starts the slab at room for exactly n values.
func (s *slab[T]) reserve(n int) {
	if n > 0 {
		*s = make([]T, 0, n)
	}
}

// refill starts a new slab with room for at least n values.
func (s *slab[T]) refill(n int) {
	*s = make([]T, 0, max(n, min(maxSlab, max(minSlab, 2*cap(*s)))))
}

// nodes builds the AST nodes of one compile from its slabs.
type nodes struct {
	vars  slab[Var]
	ints  slab[IntLit]
	apps  slab[App]
	ifs   slab[If]
	lams  slab[Lam]
	lets  slab[Let]
	names slab[string]
	binds slab[Bind]
}

// reserve sizes each slab for the nodes c counts.
func (n *nodes) reserve(c *tally) {
	n.vars.reserve(c.vars)
	n.ints.reserve(c.ints)
	n.apps.reserve(c.apps)
	n.ifs.reserve(c.ifs)
	n.lams.reserve(c.lams)
	n.lets.reserve(c.lets)
	n.names.reserve(c.names)
	n.binds.reserve(c.binds)
}

func (n *nodes) newVar(name string) *Var {
	v := n.vars.new()
	v.Name = name
	return v
}

func (n *nodes) newInt(val int64) *IntLit {
	l := n.ints.new()
	l.Val = val
	return l
}

func (n *nodes) newApp(f, a Expr) *App {
	x := n.apps.new()
	x.Fun, x.Arg = f, a
	return x
}

func (n *nodes) newIf(c, t, e Expr) *If {
	x := n.ifs.new()
	x.Cond, x.Then, x.Else = c, t, e
	return x
}

// newLam builds a lambda over params, a run of the names slab.
func (n *nodes) newLam(params []string, body Expr) *Lam {
	x := n.lams.new()
	x.Params, x.Body = params, body
	return x
}

// newLet builds a let over a copy of binds.
func (n *nodes) newLet(binds []Bind, body Expr) *Let {
	x := n.lets.new()
	x.Binds, x.Body = n.binds.clone(binds), body
	return x
}

// freeVars collects the free variables of e into out.
func freeVars(e Expr, bound map[string]bool, out map[string]bool) {
	switch x := e.(type) {
	case *Var:
		if !bound[x.Name] {
			out[x.Name] = true
		}
	case *Lam:
		inner := copyBound(bound)
		for _, p := range x.Params {
			inner[p] = true
		}
		freeVars(x.Body, inner, out)
	case *App:
		freeVars(x.Fun, bound, out)
		freeVars(x.Arg, bound, out)
	case *If:
		freeVars(x.Cond, bound, out)
		freeVars(x.Then, bound, out)
		freeVars(x.Else, bound, out)
	case *Let:
		inner := copyBound(bound)
		for _, b := range x.Binds {
			inner[b.Name] = true
		}
		for _, b := range x.Binds {
			freeVars(b.Val, inner, out)
		}
		freeVars(x.Body, inner, out)
	}
}

func copyBound(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
