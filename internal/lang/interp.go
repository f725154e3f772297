package lang

import (
	"errors"
	"fmt"
)

// The reference interpreter: a direct call-by-need evaluator for the
// surface language, used as the semantic oracle in differential tests
// against the combinator-graph reduction engine.

// ErrFuel is returned when evaluation exceeds its step budget (the
// interpreter's stand-in for nontermination).
var ErrFuel = errors.New("lang: out of fuel")

// ErrBottom is returned when ⊥ is forced.
var ErrBottom = errors.New("lang: bottom forced")

// IValue is an interpreter value.
type IValue interface{ ivalue() }

// IInt is an integer value.
type IInt int64

// IBool is a boolean value.
type IBool bool

// INil is the empty list.
type INil struct{}

// ICons is a lazy pair.
type ICons struct{ Head, Tail *Thunk }

// IClosure is a lambda value.
type IClosure struct {
	Param string
	Rest  []string // remaining params for multi-parameter lambdas
	Body  Expr
	Env   *IEnv
}

// IPrimVal is a (possibly partially applied) builtin.
type IPrimVal struct {
	Name  string
	Arity int
	Args  []*Thunk
}

func (IInt) ivalue()     {}
func (IBool) ivalue()    {}
func (INil) ivalue()     {}
func (ICons) ivalue()    {}
func (IClosure) ivalue() {}
func (IPrimVal) ivalue() {}

// Thunk is a memoized suspended expression (or suspended computation, for
// knots like fix).
type Thunk struct {
	done    bool
	val     IValue
	expr    Expr
	env     *IEnv
	compute func() (IValue, error)
	busy    bool // blackhole: self-referential forcing ⇒ deadlock
}

// IEnv is a linked environment frame.
type IEnv struct {
	name  string
	thunk *Thunk
	next  *IEnv
}

func (e *IEnv) lookup(name string) (*Thunk, bool) {
	for f := e; f != nil; f = f.next {
		if f.name == name {
			return f.thunk, true
		}
	}
	return nil, false
}

// Interp evaluates expressions with a step budget.
type Interp struct {
	fuel int
}

// NewInterp builds an interpreter with the given step budget.
func NewInterp(fuel int) *Interp { return &Interp{fuel: fuel} }

// interpBuiltinArity maps builtin names usable as values to arities.
var interpBuiltinArity = map[string]int{
	"__add": 2, "__sub": 2, "__mul": 2, "__div": 2, "__mod": 2,
	"__eq": 2, "__ne": 2, "__lt": 2, "__le": 2, "__gt": 2, "__ge": 2,
	"and": 2, "or": 2, "not": 1, "neg": 1,
	"cons": 2, "head": 1, "tail": 1, "isnil": 1, "ispair": 1,
	"seq": 2, "spec": 2, "par": 2, "bottom": 0, "fix": 1, "isbottom": 1,
}

// Eval evaluates an expression to a value (WHNF).
func (in *Interp) Eval(e Expr) (IValue, error) {
	return in.eval(e, nil)
}

// EvalString parses and evaluates a program.
func (in *Interp) EvalString(src string) (IValue, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return in.Eval(e)
}

func (in *Interp) spend() error {
	in.fuel--
	if in.fuel < 0 {
		return ErrFuel
	}
	return nil
}

// Force evaluates a thunk to WHNF with memoization.
func (in *Interp) Force(t *Thunk) (IValue, error) {
	if t.done {
		return t.val, nil
	}
	if t.busy {
		return nil, ErrBottom // self-dependent value: deadlock
	}
	t.busy = true
	var v IValue
	var err error
	if t.compute != nil {
		v, err = t.compute()
	} else {
		v, err = in.eval(t.expr, t.env)
	}
	t.busy = false
	if err != nil {
		return nil, err
	}
	t.done = true
	t.val = v
	t.expr = nil
	t.env = nil
	t.compute = nil
	return v, nil
}

func (in *Interp) eval(e Expr, env *IEnv) (IValue, error) {
	if err := in.spend(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *IntLit:
		return IInt(x.Val), nil
	case *BoolLit:
		return IBool(x.Val), nil
	case *NilLit:
		return INil{}, nil
	case *Var:
		if t, ok := env.lookup(x.Name); ok {
			return in.Force(t)
		}
		if x.Name == "bottom" {
			return nil, ErrBottom
		}
		if ar, ok := interpBuiltinArity[x.Name]; ok {
			return IPrimVal{Name: x.Name, Arity: ar}, nil
		}
		return nil, fmt.Errorf("unbound variable %q", x.Name)
	case *Lam:
		return IClosure{Param: x.Params[0], Rest: x.Params[1:], Body: x.Body, Env: env}, nil
	case *If:
		c, err := in.eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		cb, ok := c.(IBool)
		if !ok {
			return nil, fmt.Errorf("if: non-boolean predicate %T", c)
		}
		if bool(cb) {
			return in.eval(x.Then, env)
		}
		return in.eval(x.Else, env)
	case *Let:
		frame := env
		thunks := make([]*Thunk, len(x.Binds))
		for i, b := range x.Binds {
			thunks[i] = &Thunk{expr: b.Val}
			frame = &IEnv{name: b.Name, thunk: thunks[i], next: frame}
		}
		for _, t := range thunks {
			t.env = frame // recursive scope
		}
		return in.eval(x.Body, frame)
	case *App:
		f, err := in.eval(x.Fun, env)
		if err != nil {
			return nil, err
		}
		arg := &Thunk{expr: x.Arg, env: env}
		return in.apply(f, arg)
	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

func (in *Interp) apply(f IValue, arg *Thunk) (IValue, error) {
	if err := in.spend(); err != nil {
		return nil, err
	}
	switch fv := f.(type) {
	case IClosure:
		env := &IEnv{name: fv.Param, thunk: arg, next: fv.Env}
		if len(fv.Rest) > 0 {
			return IClosure{Param: fv.Rest[0], Rest: fv.Rest[1:], Body: fv.Body, Env: env}, nil
		}
		return in.eval(fv.Body, env)
	case IPrimVal:
		args := append(append([]*Thunk(nil), fv.Args...), arg)
		if len(args) < fv.Arity {
			return IPrimVal{Name: fv.Name, Arity: fv.Arity, Args: args}, nil
		}
		return in.prim(fv.Name, args)
	default:
		return nil, fmt.Errorf("cannot apply %T", f)
	}
}

func (in *Interp) forceInt(t *Thunk) (int64, error) {
	v, err := in.Force(t)
	if err != nil {
		return 0, err
	}
	i, ok := v.(IInt)
	if !ok {
		return 0, fmt.Errorf("expected int, got %T", v)
	}
	return int64(i), nil
}

func (in *Interp) forceBool(t *Thunk) (bool, error) {
	v, err := in.Force(t)
	if err != nil {
		return false, err
	}
	b, ok := v.(IBool)
	if !ok {
		return false, fmt.Errorf("expected bool, got %T", v)
	}
	return bool(b), nil
}

func (in *Interp) prim(name string, args []*Thunk) (IValue, error) {
	switch name {
	case "__add", "__sub", "__mul", "__div", "__mod":
		x, err := in.forceInt(args[0])
		if err != nil {
			return nil, err
		}
		y, err := in.forceInt(args[1])
		if err != nil {
			return nil, err
		}
		switch name {
		case "__add":
			return IInt(x + y), nil
		case "__sub":
			return IInt(x - y), nil
		case "__mul":
			return IInt(x * y), nil
		case "__div":
			if y == 0 {
				return nil, errors.New("division by zero")
			}
			return IInt(x / y), nil
		default:
			if y == 0 {
				return nil, errors.New("modulo by zero")
			}
			return IInt(x % y), nil
		}
	case "__eq", "__ne", "__lt", "__le", "__gt", "__ge":
		x, err := in.forceInt(args[0])
		if err != nil {
			return nil, err
		}
		y, err := in.forceInt(args[1])
		if err != nil {
			return nil, err
		}
		switch name {
		case "__eq":
			return IBool(x == y), nil
		case "__ne":
			return IBool(x != y), nil
		case "__lt":
			return IBool(x < y), nil
		case "__le":
			return IBool(x <= y), nil
		case "__gt":
			return IBool(x > y), nil
		default:
			return IBool(x >= y), nil
		}
	case "and", "or":
		x, err := in.forceBool(args[0])
		if err != nil {
			return nil, err
		}
		y, err := in.forceBool(args[1])
		if err != nil {
			return nil, err
		}
		if name == "and" {
			return IBool(x && y), nil
		}
		return IBool(x || y), nil
	case "not":
		x, err := in.forceBool(args[0])
		if err != nil {
			return nil, err
		}
		return IBool(!x), nil
	case "neg":
		x, err := in.forceInt(args[0])
		if err != nil {
			return nil, err
		}
		return IInt(-x), nil
	case "cons":
		return ICons{Head: args[0], Tail: args[1]}, nil
	case "head", "tail":
		v, err := in.Force(args[0])
		if err != nil {
			return nil, err
		}
		c, ok := v.(ICons)
		if !ok {
			return nil, fmt.Errorf("%s of non-pair %T", name, v)
		}
		if name == "head" {
			return in.Force(c.Head)
		}
		return in.Force(c.Tail)
	case "isnil":
		v, err := in.Force(args[0])
		if err != nil {
			return nil, err
		}
		_, ok := v.(INil)
		return IBool(ok), nil
	case "ispair":
		v, err := in.Force(args[0])
		if err != nil {
			return nil, err
		}
		_, ok := v.(ICons)
		return IBool(ok), nil
	case "seq":
		if _, err := in.Force(args[0]); err != nil {
			return nil, err
		}
		return in.Force(args[1])
	case "spec":
		// The interpreter does not speculate; spec a b ≡ b.
		return in.Force(args[1])
	case "par":
		if _, err := in.Force(args[0]); err != nil {
			return nil, err
		}
		return in.Force(args[1])
	case "isbottom":
		// Footnote 5's probe, in reference semantics: true iff forcing the
		// operand blackholes (self-dependency). Other errors propagate.
		v, err := in.Force(args[0])
		if errors.Is(err, ErrBottom) {
			return IBool(true), nil
		}
		if err != nil {
			return nil, err
		}
		_ = v
		return IBool(false), nil
	case "fix":
		// fix f = f (fix f), lazily: the argument thunk computes the same
		// application, so a function strict in its own fixpoint blackholes
		// (ErrBottom), mirroring the engine's cyclic-knot deadlock.
		fv, err := in.Force(args[0])
		if err != nil {
			return nil, err
		}
		self := &Thunk{}
		self.compute = func() (IValue, error) { return in.apply(fv, self) }
		return in.apply(fv, self)
	default:
		return nil, fmt.Errorf("unknown builtin %q", name)
	}
}
