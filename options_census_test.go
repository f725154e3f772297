package dgr

import (
	"reflect"
	"testing"
)

// maxOptions is the number of exported Options fields this tree has. It is a
// ratchet, like the allocation budget next door: every field doubles the
// configurations that tests and benchmarks must cover. Lower it when a field
// goes.
const maxOptions = 28

func TestOptionsCensus(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			n++
		}
	}
	if n > maxOptions {
		t.Fatalf("dgr.Options has %d exported fields, ceiling %d: delete a knob nothing sets, "+
			"or raise maxOptions and justify the new one in CHANGES.md", n, maxOptions)
	}
}
