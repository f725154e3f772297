package lang

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/workload"
)

// regenCompile rewrites testdata/compile.golden from this build
// (go test -run TestCompileGolden ./internal/lang -regen-compile).
var regenCompile = flag.Bool("regen-compile", false, "regenerate testdata/compile.golden")

const compileGolden = "testdata/compile.golden"

// Preludes shaped like the repository benchmark's list and sieve programs.
const (
	goldenListPrelude = `let upto a b = if a > b then [] else a : upto (a + 1) b;
    sum xs = if isnil xs then 0 else head xs + sum (tail xs);
    len xs = if isnil xs then 0 else 1 + len (tail xs);
    map f xs = if isnil xs then [] else f (head xs) : map f (tail xs)
in `
	goldenSievePrelude = `let upfrom n = n : upfrom (n + 1);
    take n xs = if n == 0 then [] else head xs : take (n - 1) (tail xs);
    filter p xs = if isnil xs then []
                  else if p (head xs) then head xs : filter p (tail xs)
                  else filter p (tail xs);
    sieve xs = head xs : sieve (filter (\x. x % head xs /= 0) (tail xs));
    sum xs = if isnil xs then 0 else head xs + sum (tail xs)
in `
)

// corpusNames returns the names of workload.Programs in order.
func corpusNames() []string {
	names := make([]string, 0, len(workload.Programs))
	for name := range workload.Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// goldenCorpus is every program the compile golden pins: the workload
// corpus, programs shaped like the benchmark's, a few shapes the lifter
// treats specially (curried and nested lambdas, captured lets, shadowing,
// residual knots) and a fixed run of generated programs.
func goldenCorpus() [][2]string {
	var out [][2]string
	for _, name := range corpusNames() {
		out = append(out, [2]string{"corpus/" + name, workload.Programs[name].Src})
	}
	extra := [][2]string{
		{"bench/sumsquares", goldenListPrelude + `sum (map (\x. x * x + 17) (upto 1 60))`},
		{"bench/churn", goldenListPrelude + `let go n acc = if n == 0 then acc else go (n - 1) (acc + len (upto 1 30))
in go 40 17`},
		{"bench/livelist", goldenListPrelude + `let xs = upto 17 (17 + 299) in sum xs + len xs + sum xs`},
		{"bench/nested", goldenListPrelude + `let xss = map (\i. upto i (i + 39)) (upto 17 (17 + 5))
in sum (map sum xss) + len xss + sum (map len xss)`},
		{"bench/primes", goldenSievePrelude + `sum (take 18 (sieve (upfrom 2))) + 17`},
		{"bench/list", goldenListPrelude + `sum (map (\x. x + 17) (upto 1 12))`},
		{"bench/arith", `let sq x = x * x; a = 17 in (sq a + sq (a + 1)) * 3 - a % 7`},
		{"bench/letrec", `let even n = if n == 0 then true else odd (n - 1);
    odd n = if n == 0 then false else even (n - 1)
in if even 40 then 17 else 0 - 17`},
		{"bench/gcd", `let gcd a b = if b == 0 then a else gcd b (a % b) in gcd (17 * 18 + 12) 18`},
		{"shape/knot1", `let x = x + 1 in x`},
		{"shape/knot2", `let a = b + 1; b = a + 1 in a`},
		{"shape/curried", `let f = \x. \y. x + y in f 1 2`},
		{"shape/shadow", `(\x. \x. x + 1) 1 2`},
		{"shape/compose", `let compose f g x = f (g x); inc n = n + 1 in compose inc inc 40`},
		{"shape/selfapp", `(\x. x x) (\x. 1)`},
		{"shape/capture", `let f n = let g k = k + n; z = n * 2 in g z + g 1 in f 5`},
		{"shape/partial", `let add a b = a + b; inc = add 1 in inc 41`},
		{"shape/fix", `fix (\f. \n. if n == 0 then 0 else n + f (n - 1)) 10`},
		{"shape/lazy", `let loop n = loop n; k a b = a in k 3 (loop 1)`},
	}
	out = append(out, extra...)
	g := NewGen(20261019, GenConfig{})
	for i := 0; i < 40; i++ {
		_, src, _ := g.Program()
		out = append(out, [2]string{fmt.Sprintf("gen/%02d", i), src})
	}
	return out
}

// writeGraph hashes every vertex of store in id order: its id, partition,
// label, flags, arcs with their request kinds, and requester count.
func writeGraph(h hash.Hash, store *graph.Store, root *graph.Vertex) {
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(root.ID))
	store.ForEach(func(v *graph.Vertex) {
		put(int64(v.ID))
		put(int64(v.Part))
		put(int64(v.Kind))
		put(v.Val)
		var flags int64
		if v.WHNF {
			flags |= 1
		}
		if v.Evaluating {
			flags |= 2
		}
		put(flags)
		args := v.Args()
		put(int64(len(args)))
		for i, a := range args {
			put(int64(a))
			put(int64(v.ReqKindAt(i)))
		}
		put(int64(len(v.Requested())))
	})
}

func goldenStore() *graph.Store {
	return graph.NewStore(graph.Config{Partitions: 4, Serial: true})
}

// combDigest digests the combinator graph CompileString builds, or the
// error it returns.
func combDigest(src string) string {
	h := sha256.New()
	store := goldenStore()
	root, err := CompileString(store, src)
	if err != nil {
		return "error:" + strings.ReplaceAll(err.Error(), " ", "_")
	}
	writeGraph(h, store, root)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// superDigest digests what CompileSupers builds: the main graph, and every
// supercombinator's name, arity, frame sizes, strictness mask and code.
func superDigest(src string) string {
	h := sha256.New()
	store := goldenStore()
	prog := gm.NewProgram()
	root, err := CompileSupers(store, prog, src)
	if err != nil {
		return "error:" + strings.ReplaceAll(err.Error(), " ", "_")
	}
	writeGraph(h, store, root)
	for i := 0; i < prog.Len(); i++ {
		s := prog.Super(i)
		fmt.Fprintf(h, "%s/%d/%d/%d/%v/", s.Name, s.Arity, s.NLocals, s.MaxHigh, s.Strict)
		for _, in := range s.Code {
			fmt.Fprintf(h, "%d,%d,%d;", in.Op, in.A, in.B)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// TestCompileGolden pins the front end's output byte for byte: the
// combinator graph, the supercombinator graph, the gm code and the
// strictness masks of every corpus program. A pass may change how it
// builds them, never what it builds.
func TestCompileGolden(t *testing.T) {
	corpus := goldenCorpus()
	got := make([]string, len(corpus))
	for i, c := range corpus {
		got[i] = fmt.Sprintf("%s %s %s", c[0], combDigest(c[1]), superDigest(c[1]))
	}
	if *regenCompile {
		body := "# name  combinator-graph  supercombinator-graph+code+masks\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(compileGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s: %d programs", compileGolden, len(got))
		return
	}
	f, err := os.Open(compileGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if text := sc.Text(); text != "" && !strings.HasPrefix(text, "#") {
			want = append(want, text)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d programs, the corpus %d", compileGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s\n got %s\nwant %s", corpus[i][0], got[i], want[i])
		}
	}
}
