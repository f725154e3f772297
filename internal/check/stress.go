package check

// Stress holds the dials that put a machine under test stress rather than
// configure it: a pop order that ignores priority, stealing turned off, and
// a fault that the checker must catch. dgr.Options.Stress points at one (nil
// means none); only the sweep command and tests set it.
type Stress struct {
	// Adversarial, in deterministic mode, pops uniformly random tasks
	// instead of respecting priority bands (interleaving stress).
	Adversarial bool
	// DisableSteal turns cross-PE work stealing off. Stealing is on by
	// default in parallel mode (an idle PE takes a batch from the tail of
	// the most-loaded peer's pool) and never applies to deterministic mode.
	DisableSteal bool
	// FaultSkipMark, when n > 0, silently drops a deterministic 1/n of
	// child mark tasks: it manufactures a marking-invariant violation for
	// validating the checker and the replay pipeline. The selection hashes
	// (parent, child, epoch), so a replayed schedule reproduces the recorded
	// run's faults exactly.
	FaultSkipMark int64
}
