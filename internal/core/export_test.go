package core

import "dgr/internal/graph"

// StartEpochsAt puts both contexts' counters at n as a marker that had run
// every cycle up to n would have left them — the store renormalised at n,
// as the BeginCycles on the way would have done — with the next
// renormalisation due renormIn epochs on. It is how a test reaches the wrap
// without running 2³² cycles. Call it while no cycle runs.
func (m *Marker) StartEpochsAt(n, renormIn uint32) {
	for c := range m.ctxs {
		m.ctxs[c].epoch.Store(n)
	}
	m.renormalise()
	for c := range m.ctxs {
		m.ctxs[c].renormed = n + renormIn - graph.RenormEvery
	}
}
