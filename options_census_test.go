package dgr_test

import (
	"reflect"
	"testing"

	"dgr"
	"dgr/internal/core"
	"dgr/internal/fabric"
	"dgr/internal/sched"
	"dgr/internal/serve"
)

// The census of settable configuration: exported fields of the public
// Options, and of every config struct a layer takes. Both ceilings are
// ratchets, like the allocation budget next door: every field doubles the
// configurations that tests and benchmarks must cover. Lower them when a
// field goes.
const (
	maxOptions      = 16 // dgr.Options
	maxConfigFields = 41 // dgr.Options + serve.Options + sched.Config + fabric.Config + core.CollectorConfig
)

func exportedFields(v any) int {
	typ := reflect.TypeOf(v)
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			n++
		}
	}
	return n
}

func TestOptionsCensus(t *testing.T) {
	const advice = "delete a knob nothing sets, or raise the ceiling and justify the new one in CHANGES.md"
	n := exportedFields(dgr.Options{})
	if n > maxOptions {
		t.Fatalf("dgr.Options has %d exported fields, ceiling %d: %s", n, maxOptions, advice)
	}
	sum := 0
	for _, cfg := range []any{dgr.Options{}, serve.Options{}, sched.Config{}, fabric.Config{}, core.CollectorConfig{}} {
		sum += exportedFields(cfg)
	}
	t.Logf("census: dgr.Options has %d exported fields, the five config structs %d", n, sum)
	if sum > maxConfigFields {
		t.Fatalf("the config structs have %d exported fields in all, ceiling %d: %s", sum, maxConfigFields, advice)
	}
}
