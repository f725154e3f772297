package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dgr/internal/sched"
)

// WriteJSONL writes a schedule log: the execution record's entries
// (sched.Machine.Record), one JSON line each, in replay order. A cycle's
// roots are the root lines that follow it.
func WriteJSONL(w io.Writer, entries []sched.Entry) error {
	enc := json.NewEncoder(w)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a schedule log written by WriteJSONL. A caller that
// writes a header line of its own ahead of the entries passes head to decode
// it into; nil reads entries from the first line. A field or an "ev" name
// sched.Entry does not declare is an error, not something to skip: it is a
// decision some other build recorded (an incremental-sweep scope, "sweep",
// until the collector lost it), and a replay that ignored it would diverge
// somewhere unrelated.
func ReadJSONL(rd io.Reader, head any) ([]sched.Entry, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	line := 1
	if head != nil {
		if err := dec.Decode(head); err != nil {
			return nil, fmt.Errorf("check: schedule log line 1: %w", err)
		}
		line++
	}
	var entries []sched.Entry
	for ; ; line++ {
		var e sched.Entry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return entries, nil
			}
			return entries, fmt.Errorf("check: schedule log line %d: %w", line, err)
		}
		entries = append(entries, e)
	}
}
