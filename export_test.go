package dgr

// SetInlineBudget sets m's reduction engine's inline step budget
// (reduce.Engine.SetInlineBudget), before m evaluates anything. At 0 the
// engine spawns every continuation as a Reduce task.
func SetInlineBudget(m *Machine, n int) { m.engine.SetInlineBudget(n) }
