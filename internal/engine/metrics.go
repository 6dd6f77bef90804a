package engine

// Metrics aggregates engine-wide counters over one run. Every field is
// maintained by a plain integer increment inline in the event handlers —
// no map lookups, no allocation, no virtual calls — so keeping them
// costs nothing measurable even on paper-scale sweeps.
//
// The action counters (sends, computes, requests, grows) count exactly
// the events Config.Tracer receives in the same run; TestMetricsMatchTrace
// in internal/trace holds the two layers to that contract. Requests counts
// post-startup requests only: the initial burst (one per buffer per node)
// is configuration, not scheduling, and is absent from the stream too —
// the conformance replay derives it from each core's Initial.
type Metrics struct {
	// Kernel counters, snapshotted from the sim.Simulator.
	Events        uint64 // simulator events dispatched
	PeakPending   int    // event-queue high-water mark
	FreeListHits  uint64 // event allocations served by recycling
	EventAllocs   uint64 // event allocations that hit the heap
	EventsCancels uint64 // events removed by cancellation (shelving, departures)

	// Scheduling action counters.
	SendsStarted     int64 // fresh transfers begun
	SendsResumed     int64 // shelved transfers resumed
	SendsInterrupted int64 // in-flight transfers preempted onto the shelf
	SendsCompleted   int64 // transfers delivered
	ComputesStarted  int64
	ComputesDone     int64
	Requests         int64 // task requests sent upward after startup
	Grows            int64 // buffer-growth events (non-IC protocol)
	Decays           int64 // buffers retired by the decay rule

	// Platform high-water marks.
	PeakShelved  int   // most simultaneously shelved transfers at any node
	PeakOccupied int64 // most tasks queued at any single node
}

// FreeListHitRate returns the fraction of event allocations served from
// the recycler, in [0, 1]; a healthy run is near 1.
func (m *Metrics) FreeListHitRate() float64 {
	total := m.FreeListHits + m.EventAllocs
	if total == 0 {
		return 0
	}
	return float64(m.FreeListHits) / float64(total)
}

// Add accumulates o into m: counters sum, high-water marks take the max.
// Sweeps use it to aggregate per-tree metrics into population totals.
func (m *Metrics) Add(o Metrics) {
	m.Events += o.Events
	m.FreeListHits += o.FreeListHits
	m.EventAllocs += o.EventAllocs
	m.EventsCancels += o.EventsCancels
	m.SendsStarted += o.SendsStarted
	m.SendsResumed += o.SendsResumed
	m.SendsInterrupted += o.SendsInterrupted
	m.SendsCompleted += o.SendsCompleted
	m.ComputesStarted += o.ComputesStarted
	m.ComputesDone += o.ComputesDone
	m.Requests += o.Requests
	m.Grows += o.Grows
	m.Decays += o.Decays
	if o.PeakPending > m.PeakPending {
		m.PeakPending = o.PeakPending
	}
	if o.PeakShelved > m.PeakShelved {
		m.PeakShelved = o.PeakShelved
	}
	if o.PeakOccupied > m.PeakOccupied {
		m.PeakOccupied = o.PeakOccupied
	}
}
