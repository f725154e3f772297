package lang

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// SC is one lifted supercombinator: a closed function of Arity parameters
// whose body contains no lambdas (every nested lambda has itself been
// lifted and replaced by a partial application of its supercombinator to
// its free variables). Params and Body may share slices and subtrees with
// the lifted input, which is why neither may be written.
type SC struct {
	Name   string
	Params []string
	Body   Expr
}

// Arity returns the number of parameters the supercombinator consumes.
func (s SC) Arity() int { return len(s.Params) }

// SCProg is a lambda-lifted program: a table of supercombinators plus the
// lambda-free main expression. Supercombinator references appear in bodies
// and in Main as Var nodes whose name is the SC's Name; Index resolves
// them.
type SCProg struct {
	Supers []SC
	Main   Expr
	Index  map[string]int
}

// lifter carries the state of one lifting pass.
type lifter struct {
	supers    []SC
	index     map[string]int
	n         int
	env       scope[liftEntry]
	bindStack []Bind // stack of lifted residual let bindings
	nodes
	// edits counts the replacements made so far: a subtree whose lifting
	// made none is returned as it came, not rebuilt.
	edits int
}

// liftEnv classifies the names in scope during lifting.
type liftBinding int

const (
	bindParam liftBinding = iota // lambda parameter (a per-call value)
	bindLocal                    // non-lambda let binding (a shared graph knot)
	bindSuper                    // a lifted supercombinator reference
)

type liftEntry struct {
	class liftBinding
	// repl is the replacement expression for bindSuper entries: the
	// supercombinator applied to its captured free variables, extra.
	repl  Expr
	extra []string
}

// Lift lambda-lifts e into a supercombinator program (Johnsson-style: the
// free variables of each lambda become extra leading parameters, passed at
// every occurrence site). Let-bound lambdas become named supercombinators —
// mutual recursion resolves through the table, with the captured-variable
// sets closed transitively across the recursive group. Non-lambda let
// bindings are left in place (they compile to shared graph knots).
func Lift(e Expr) (*SCProg, error) {
	var c liftTally
	c.count(e)
	l := &lifter{
		supers: make([]SC, 0, c.lams),
		index:  make(map[string]int, c.lams),
		env:    make(scope[liftEntry], 0, c.names),
	}
	l.rebuilt(e, 0, &c)
	l.apps.reserve(c.apps + c.captured)
	l.ifs.reserve(c.ifs)
	l.vars.reserve(c.lams + c.captured)
	main, err := l.lift(e)
	if err != nil {
		return nil, err
	}
	return &SCProg{Supers: l.supers, Main: main, Index: l.index}, nil
}

// liftTally sizes what lifting an expression allocates. count fills lams,
// its lambdas, each at most one supercombinator, and names, the names its
// lambdas and lets bind, which the lifter's scope holds (with the captured
// ones it adds, as it finds them); rebuilt fills the rest.
type liftTally struct {
	lams, names int
	// apps and ifs are the nodes lift rebuilds, and captured the references
	// a lambda's body makes to a parameter or local bound outside it: at
	// least the captured names, each of which a supercombinator reference
	// applies, as an App of a Var.
	apps, ifs, captured int
}

func (c *liftTally) count(e Expr) {
	switch x := e.(type) {
	case *App:
		c.count(x.Fun)
		c.count(x.Arg)
	case *If:
		c.count(x.Cond)
		c.count(x.Then)
		c.count(x.Else)
	case *Lam:
		c.lams++
		c.names += len(x.Params)
		c.count(x.Body)
	case *Let:
		c.names += len(x.Binds)
		for _, b := range x.Binds {
			c.count(b.Val)
		}
		c.count(x.Body)
	}
}

// rebuilt reports whether lifting e changes it — it holds a lambda, or a
// reference to a let-bound one — and counts into c the Apps and Ifs on the
// way to a change, which lift rebuilds, and the captured references, those
// to names bound below l.env[floor], where the innermost lambda around e
// starts binding. It binds names in l.env as lift does, less the captured
// names, which never change what a name resolves to, and leaves l.env as it
// found it.
func (l *lifter) rebuilt(e Expr, floor int, c *liftTally) bool {
	switch x := e.(type) {
	case *Var:
		for i := len(l.env) - 1; i >= 0; i-- {
			if l.env[i].name != x.Name {
				continue
			}
			if l.env[i].val.class == bindSuper {
				return true
			}
			if i < floor {
				c.captured++
			}
			break
		}
	case *App:
		if f, a := l.rebuilt(x.Fun, floor, c), l.rebuilt(x.Arg, floor, c); f || a {
			c.apps++
			return true
		}
	case *If:
		i, t := l.rebuilt(x.Cond, floor, c), l.rebuilt(x.Then, floor, c)
		if el := l.rebuilt(x.Else, floor, c); i || t || el {
			c.ifs++
			return true
		}
	case *Lam:
		mark := len(l.env)
		for _, p := range x.Params {
			l.env.push(p, liftEntry{class: bindParam})
		}
		l.rebuilt(x.Body, mark, c)
		l.env = l.env[:mark]
		return true
	case *Let:
		mark, changed := len(l.env), false
		for _, b := range x.Binds {
			class := bindLocal
			if _, ok := b.Val.(*Lam); ok {
				class, changed = bindSuper, true
			}
			l.env.push(b.Name, liftEntry{class: class})
		}
		for _, b := range x.Binds {
			changed = l.rebuilt(b.Val, floor, c) || changed
		}
		changed = l.rebuilt(x.Body, floor, c) || changed
		l.env = l.env[:mark]
		return changed
	}
	return false
}

// fresh reserves the next supercombinator slot under a unique name.
func (l *lifter) fresh(hint string) (int, string) {
	idx := len(l.supers)
	name := "$" + strconv.Itoa(l.n) + "-" + hint
	l.n++
	l.supers = append(l.supers, SC{Name: name})
	l.index[name] = idx
	return idx, name
}

// capturedSet adds to out, which it makes on the first name it adds, the
// names from free that are bound to parameters or locals in l.env. A free
// reference to an already-lifted supercombinator expands at the occurrence
// site to the SC applied to its own captured variables, so those variables
// are captured here too.
func (l *lifter) capturedSet(free, out map[string]bool) map[string]bool {
	for name := range free {
		ent, ok := l.env.lookup(name)
		if !ok {
			continue
		}
		switch ent.class {
		case bindParam, bindLocal:
			out = addName(out, name)
		case bindSuper:
			for _, fv := range ent.extra {
				if e2, ok := l.env.lookup(fv); ok && (e2.class == bindParam || e2.class == bindLocal) {
					out = addName(out, fv)
				}
			}
		}
	}
	return out
}

func addName(set map[string]bool, name string) map[string]bool {
	if set == nil {
		set = map[string]bool{}
	}
	set[name] = true
	return set
}

// withCaptured returns the parameters of a lifted lambda: the captured
// names in order, then its own params; and the captured names alone. A
// lambda that captures nothing keeps its own params slice.
func withCaptured(captured map[string]bool, params []string) (all, extra []string) {
	if len(captured) == 0 {
		return params, nil
	}
	all = make([]string, 0, len(captured)+len(params))
	for name := range captured {
		all = append(all, name)
	}
	sort.Strings(all)
	return append(all, params...), all
}

// superRef is the occurrence-site form of a lifted supercombinator: name
// applied to its captured variables.
func (l *lifter) superRef(name string, extra []string) Expr {
	ref := Expr(l.newVar(name))
	for _, p := range extra {
		ref = l.newApp(ref, l.newVar(p))
	}
	return ref
}

// flatten merges directly nested lambdas (\x. \y. e → \x y. e) so a
// curried definition lifts to one supercombinator of full arity. Merging
// stops at a shadowed parameter, where currying must stay observable.
func flatten(lam *Lam) Lam {
	params, body := lam.Params, lam.Body
	for {
		inner, ok := body.(*Lam)
		if !ok || shadows(params, inner.Params) {
			break
		}
		params = append(params[:len(params):len(params)], inner.Params...)
		body = inner.Body
	}
	return Lam{Params: params, Body: body}
}

// shadows reports whether a parameter of inner repeats one of params or an
// earlier one of inner.
func shadows(params, inner []string) bool {
	for i, p := range inner {
		if slices.Contains(params, p) || slices.Contains(inner[:i], p) {
			return true
		}
	}
	return false
}

// lift rewrites e, lifting every lambda out into l.supers. A subtree it
// does not change comes back as the same Expr.
func (l *lifter) lift(e Expr) (Expr, error) {
	switch x := e.(type) {
	case *Var:
		if ent, ok := l.env.lookup(x.Name); ok && ent.class == bindSuper {
			l.edits++
			return ent.repl, nil
		}
		return e, nil
	case *IntLit, *BoolLit, *NilLit:
		return e, nil
	case *App:
		edits := l.edits
		f, err := l.lift(x.Fun)
		if err != nil {
			return nil, err
		}
		a, err := l.lift(x.Arg)
		if err != nil {
			return nil, err
		}
		if l.edits == edits {
			return e, nil
		}
		return l.newApp(f, a), nil
	case *If:
		edits := l.edits
		c, err := l.lift(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := l.lift(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := l.lift(x.Else)
		if err != nil {
			return nil, err
		}
		if l.edits == edits {
			return e, nil
		}
		return l.newIf(c, t, els), nil
	case *Lam:
		l.edits++
		return l.liftLam(flatten(x), "lam")
	case *Let:
		return l.liftLet(x, e)
	default:
		return nil, fmt.Errorf("lift: unknown expression %T", e)
	}
}

// liftLam lifts one anonymous lambda: its captured variables become extra
// leading parameters and the occurrence site becomes the supercombinator
// applied to those variables.
func (l *lifter) liftLam(lam Lam, hint string) (Expr, error) {
	exclude := make(map[string]bool, len(lam.Params))
	for _, p := range lam.Params {
		exclude[p] = true
	}
	free := map[string]bool{}
	freeVars(lam.Body, exclude, free)
	params, extra := withCaptured(l.capturedSet(free, nil), lam.Params)

	idx, name := l.fresh(hint)
	mark := len(l.env)
	for _, p := range params {
		l.env.push(p, liftEntry{class: bindParam})
	}
	body, err := l.lift(lam.Body)
	l.env = l.env[:mark]
	if err != nil {
		return nil, err
	}
	l.supers[idx].Params, l.supers[idx].Body = params, body
	return l.superRef(name, extra), nil
}

// liftLet lifts a let group, e: lambda-valued bindings become named
// supercombinators (with captured-variable sets closed over the mutually
// recursive group), non-lambda bindings survive as a residual Let.
func (l *lifter) liftLet(x *Let, e Expr) (Expr, error) {
	// Partition the group.
	isFun := make(map[string]bool, len(x.Binds))
	lams := make(map[string]Lam, len(x.Binds))
	groupNames := make(map[string]bool, len(x.Binds))
	for _, b := range x.Binds {
		groupNames[b.Name] = true
		if lam, ok := b.Val.(*Lam); ok {
			isFun[b.Name] = true
			lams[b.Name] = flatten(lam)
		}
	}

	// Captured variables of each function binding: free variables bound to
	// params/locals in the enclosing scope, or to non-lambda siblings of
	// this group, closed transitively through sibling function references.
	capt := make(map[string]map[string]bool)
	refs := make(map[string][]string)
	for name, lam := range lams {
		params := make(map[string]bool, len(lam.Params))
		for _, p := range lam.Params {
			params[p] = true
		}
		free := map[string]bool{}
		freeVars(lam.Body, params, free)
		var set map[string]bool
		for fv := range free {
			if !groupNames[fv] {
				continue
			}
			delete(free, fv)
			switch {
			case fv == name:
				// A recursive call passes what the function captures.
			case isFun[fv]:
				refs[name] = append(refs[name], fv)
			default:
				// Non-lambda siblings the function captures are locals of
				// the residual let: they too must be passed (their knot
				// vertex is shared, so sharing is preserved).
				set = addName(set, fv)
			}
		}
		capt[name] = l.capturedSet(free, set)
	}
	// Transitive closure: f captures whatever the siblings it references
	// capture (those variables are passed through f's call sites).
	for changed := true; changed; {
		changed = false
		for name := range lams {
			for _, sib := range refs[name] {
				for v := range capt[sib] {
					if !capt[name][v] {
						capt[name] = addName(capt[name], v)
						changed = true
					}
				}
			}
		}
	}

	// Reserve supercombinator slots (deterministic order: binding order),
	// and bind the names in which bodies and the residual let lift.
	edits := l.edits
	outer := len(l.env)
	scIdx := make(map[string]int, len(lams))
	for _, b := range x.Binds {
		if !isFun[b.Name] {
			continue
		}
		params, extra := withCaptured(capt[b.Name], lams[b.Name].Params)
		idx, scName := l.fresh(b.Name)
		scIdx[b.Name] = idx
		l.supers[idx].Params = params
		l.env.push(b.Name, liftEntry{class: bindSuper, repl: l.superRef(scName, extra), extra: extra})
	}
	for _, b := range x.Binds {
		if !isFun[b.Name] {
			l.env.push(b.Name, liftEntry{class: bindLocal})
		}
	}

	// Lift the function bodies into their reserved slots.
	for _, b := range x.Binds {
		if !isFun[b.Name] {
			continue
		}
		idx := scIdx[b.Name]
		mark := len(l.env)
		for _, p := range l.supers[idx].Params {
			l.env.push(p, liftEntry{class: bindParam})
		}
		body, err := l.lift(lams[b.Name].Body)
		l.env = l.env[:mark]
		if err != nil {
			return nil, err
		}
		l.supers[idx].Body = body
	}

	// Residual let of the non-lambda bindings (if any), around the lifted
	// body. The lifted bindings wait on l.bindStack until it is known whether
	// the let changed.
	mark := len(l.bindStack)
	for _, b := range x.Binds {
		if isFun[b.Name] {
			continue
		}
		val, err := l.lift(b.Val)
		if err != nil {
			return nil, err
		}
		l.bindStack = append(l.bindStack, Bind{Name: b.Name, Val: val})
	}
	body, err := l.lift(x.Body)
	if err != nil {
		return nil, err
	}
	l.env = l.env[:outer]
	residual := l.bindStack[mark:]
	l.bindStack = l.bindStack[:mark]
	if len(lams) == 0 && l.edits == edits {
		return e, nil
	}
	l.edits++
	if len(residual) == 0 {
		return body, nil
	}
	return l.newLet(residual, body), nil
}
