package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectIntoMissingOutDir: -out names a directory that does not exist
// yet. The inject sweep creates it, catches the injected fault, and keeps
// the recording it replayed there, which replays from disk to the violation.
func TestInjectIntoMissingOutDir(t *testing.T) {
	out := filepath.Join(t.TempDir(), "not", "yet", "there")
	if err := run([]string{"-inject", "3", "-seeds", "4", "-configs", "det", "-programs", "fib", "-out", out}); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(out, "dgr-check-fail-fib-det-seed*.jsonl"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("replay logs in %s: %q (%v), want one", out, logs, err)
	}
	err = run([]string{"-inject", "3", "-replay", logs[0]})
	if err == nil || !strings.Contains(err.Error(), "invariant violation") {
		t.Fatalf("replaying %s: %v, want the invariant violation", logs[0], err)
	}
}
