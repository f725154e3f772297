package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"dgr"
	"dgr/internal/graph"
	"dgr/internal/lang"
)

// program is a source template. Every SALT is replaced by a number drawn
// from the seed: an additive constant or a list offset, chosen so that the
// value changes with the seed and the amount of reduction work does not.
// The driver compares runs of different seeds, so a seed may not change how
// much work a pass is (fib 15 against fib 16 is 1.6x).
type program struct {
	name string
	src  string
}

const listPrelude = `let upto a b = if a > b then [] else a : upto (a + 1) b;
    sum xs = if isnil xs then 0 else head xs + sum (tail xs);
    len xs = if isnil xs then 0 else 1 + len (tail xs);
    map f xs = if isnil xs then [] else f (head xs) : map f (tail xs)
in `

const sievePrelude = `let upfrom n = n : upfrom (n + 1);
    take n xs = if n == 0 then [] else head xs : take (n - 1) (tail xs);
    filter p xs = if isnil xs then []
                  else if p (head xs) then head xs : filter p (tail xs)
                  else filter p (tail xs);
    sieve xs = head xs : sieve (filter (\x. x % head xs /= 0) (tail xs));
    sum xs = if isnil xs then 0 else head xs + sum (tail xs)
in `

// The internal/workload corpus programs, resized so that one pass of
// evalPrograms is about 250 ms on the interpreted engine.
var (
	progFib = program{"fib",
		`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15 + SALT`}
	progTak = program{"tak",
		`let tak x y z = if y >= x then z
                else tak (tak (x-1) y z) (tak (y-1) z x) (tak (z-1) x y)
in tak 10 6 3 + SALT`}
	progPrimes = program{"primes",
		sievePrelude + `sum (take 18 (sieve (upfrom 2))) + SALT`}
	progSumSquares = program{"sumsquares",
		listPrelude + `sum (map (\x. x * x + SALT) (upto 1 60))`}
	progChurn = program{"churn",
		listPrelude + `let go n acc = if n == 0 then acc else go (n - 1) (acc + len (upto 1 30))
in go 40 SALT`}
	progLiveList = program{"livelist",
		listPrelude + `let xs = upto SALT (SALT + 299) in sum xs + len xs + sum xs`}
)

var evalPrograms = []program{progFib, progTak, progPrimes, progSumSquares, progChurn, progLiveList}

// collectPrograms keep thousands of vertices reachable while they reduce,
// so every collector cycle has a large R to mark.
var collectPrograms = []program{
	{"livelist", listPrelude + `let xs = upto SALT (SALT + 899) in sum xs + len xs + sum xs`},
	{"nested", listPrelude + `let xss = map (\i. upto i (i + 39)) (upto SALT (SALT + 5))
in sum (map sum xss) + len xss + sum (map len xss)`},
	{"primes", sievePrelude + `sum (take 14 (sieve (upfrom 2))) + SALT`},
}

// coldPrograms are a few hundred tasks each; the last two never finish and
// must be reported as deadlocked.
var coldPrograms = []program{
	{"fac", `let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 12 + SALT`},
	{"arith", `let sq x = x * x; a = SALT in (sq a + sq (a + 1)) * 3 - a % 7`},
	{"list", listPrelude + `sum (map (\x. x + SALT) (upto 1 12))`},
	{"letrec", `let even n = if n == 0 then true else odd (n - 1);
    odd n = if n == 0 then false else even (n - 1)
in if even 40 then SALT else 0 - SALT`},
	{"len", listPrelude + `len (upto SALT (SALT + 15)) * 2`},
	{"gcd", `let gcd a b = if b == 0 then a else gcd b (a % b) in gcd (SALT * 18 + 12) 18`},
	{"knot1", `let x = x + 1 in x`},
	{"knot2", `let a = b + 1; b = a + 1 in a`},
}

// workload is one set of inputs and the machine configuration they run on.
type workload struct {
	name     string
	why      string
	engine   string
	gcEvery  int // Options.GCInterval; 0 is the dgr-run default (20000)
	cold     bool
	programs []program
	// rounds is how many instances of each program a pass holds, each with
	// its own salt.
	rounds int
	// passesPerSecond turns the driver's -seconds into a fixed pass count.
	// It is a constant of the benchmark, not a measurement: the same
	// -seconds always runs the same passes, on any host.
	passesPerSecond float64
}

var workloads = []*workload{
	{
		name:     "eval-interp",
		why:      "warm default-engine machine; reduce, sched and task do most of the work and the in-eval collector is a large known share",
		engine:   dgr.EngineInterp,
		programs: evalPrograms, rounds: 1, passesPerSecond: 4,
	},
	{
		name:     "eval-compiled",
		why:      "byte-identical inputs on the compiled engine, far fewer tasks; control for interp-only changes and exhibit for gm ones",
		engine:   dgr.EngineCompiled,
		programs: evalPrograms, rounds: 1, passesPerSecond: 7.5,
	},
	{
		name:     "collect-liveheap",
		why:      "GCInterval 2000 over programs that keep thousands of vertices live; most tasks are marks, so core and graph dominate",
		engine:   dgr.EngineCompiled,
		gcEvery:  2000,
		programs: collectPrograms, rounds: 1, passesPerSecond: 3.4,
	},
	{
		name:     "cold-oneshot",
		why:      "New+Eval+Close per tiny program incl. two deadlock verdicts; what a one-shot CLI user and the serve recycle path pay",
		engine:   dgr.EngineInterp,
		cold:     true,
		programs: coldPrograms, rounds: 2, passesPerSecond: 4.7,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the dgr-run defaults (4 PEs, deterministic, tracing, obs and
// checker off) with the workload's engine and collector interval.
func (w *workload) options(seed int64) dgr.Options {
	return dgr.Options{PEs: 4, Seed: seed, Engine: w.engine, GCInterval: w.gcEvery}
}

// outcome is what the oracle says a program does.
type outcome struct {
	deadlock bool
	value    int64
}

// op is one operation of a pass: a source text and its expected outcome.
type op struct {
	prog string
	src  string
	want outcome
}

// oracleFuel bounds the reference interpreter; the largest input here
// needs well under a million steps.
const oracleFuel = 50_000_000

// oracle evaluates src with the call-by-need reference interpreter, which
// shares no code with the machine beyond the parser.
func oracle(src string) (outcome, error) {
	v, err := lang.NewInterp(oracleFuel).EvalString(src)
	if errors.Is(err, lang.ErrBottom) {
		return outcome{deadlock: true}, nil
	}
	if err != nil {
		return outcome{}, err
	}
	n, ok := v.(lang.IInt)
	if !ok {
		return outcome{}, fmt.Errorf("oracle: want an integer, got %T", v)
	}
	return outcome{value: int64(n)}, nil
}

// inputs generates the op list of one pass from the seed: the salts, in
// program order, then where in that order a pass begins. Passes run back to
// back, so a rotation leaves the steady state alone, where a shuffle decides
// how much garbage the ops that collect find and moves allocated bytes by
// 1-2 % from seed to seed.
func (w *workload) inputs(seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, w.rounds*len(w.programs))
	for r := 0; r < w.rounds; r++ {
		for _, p := range w.programs {
			src := strings.ReplaceAll(p.src, "SALT", strconv.Itoa(1+rng.Intn(999)))
			want, err := oracle(src)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.name, p.name, err)
			}
			ops = append(ops, op{prog: p.name, src: src, want: want})
		}
	}
	first := rng.Intn(len(ops))
	return append(ops[first:], ops[:first]...), nil
}

// matches reports whether the machine's answer is the oracle's: the same
// integer, or a deadlock verdict where the oracle forced bottom. An error,
// a wrong value and a wrong verdict are all misses.
func (o *op) matches(v dgr.Value, err error) bool {
	if o.want.deadlock {
		return errors.Is(err, dgr.ErrDeadlock)
	}
	return err == nil && v.Kind == graph.KindInt && v.Int == o.want.value
}
