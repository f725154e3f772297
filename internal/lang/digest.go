package lang

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
)

// Digest returns a canonical SHA-256 digest (hex) of an expression. The
// digest is computed over a tagged pre-order serialization of the AST, so
// two sources that parse to the same tree — regardless of whitespace,
// comments, or redundant parentheses — share a digest, while structurally
// distinct programs get distinct digests. The serving layer's memo cache
// keys normal forms by this value; its format is pinned by the golden file
// in testdata (changing it silently would split caches across versions).
func Digest(e Expr) string {
	h := sha256.New()
	writeExpr(h, e)
	return hex.EncodeToString(h.Sum(nil))
}

// DigestString parses src and returns its canonical digest.
func DigestString(src string) (string, error) {
	e, err := Parse(src)
	if err != nil {
		return "", err
	}
	return Digest(e), nil
}

// writeExpr emits a self-delimiting encoding: every node writes a one-byte
// tag, and variable-length payloads (names, binding lists) are length-
// prefixed so concatenations of sibling encodings cannot collide.
func writeExpr(h hash.Hash, e Expr) {
	switch x := e.(type) {
	case *Var:
		writeTagged(h, 'V', x.Name)
	case *IntLit:
		writeTagged(h, 'I', strconv.FormatInt(x.Val, 10))
	case *BoolLit:
		if x.Val {
			writeTagged(h, 'B', "t")
		} else {
			writeTagged(h, 'B', "f")
		}
	case *NilLit:
		writeTagged(h, 'N', "")
	case *App:
		writeTagged(h, 'A', "")
		writeExpr(h, x.Fun)
		writeExpr(h, x.Arg)
	case *If:
		writeTagged(h, 'C', "")
		writeExpr(h, x.Cond)
		writeExpr(h, x.Then)
		writeExpr(h, x.Else)
	case *Lam:
		writeTagged(h, 'L', strconv.Itoa(len(x.Params)))
		for _, p := range x.Params {
			writeTagged(h, 'p', p)
		}
		writeExpr(h, x.Body)
	case *Let:
		writeTagged(h, 'E', strconv.Itoa(len(x.Binds)))
		for _, b := range x.Binds {
			writeTagged(h, 'b', b.Name)
			writeExpr(h, b.Val)
		}
		writeExpr(h, x.Body)
	default:
		// Unknown node kinds must not silently alias an existing encoding.
		writeTagged(h, '?', fmt.Sprintf("%T", e))
	}
}

func writeTagged(h hash.Hash, tag byte, payload string) {
	fmt.Fprintf(h, "%c%d:%s", tag, len(payload), payload)
}
