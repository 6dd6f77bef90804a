// Package sim is a deterministic discrete-event simulation kernel, the
// substrate on which the scheduling protocols execute.
//
// The paper evaluated its protocols on the Simgrid toolkit; this package
// is the from-scratch equivalent sized to the paper's model: an integer
// clock, a priority queue of events, and O(log n) cancellation — the
// interruptible-communication protocol shelves in-flight transfers, which
// requires removing their completion events from the queue.
//
// Determinism: events fire in (time, sequence) order, where sequence is
// the order of scheduling. Two runs over the same inputs produce identical
// event orders, which the test suite and reproducible experiments rely on.
//
// Events are allocated from an internal free list and recycled after they
// fire or are cancelled; callers must not retain an *Event after either.
package sim

import "fmt"

// Time is the simulated clock in integer timesteps. All durations in the
// paper's model (task communication and computation times) are integers,
// and interruption preserves integrality, so no fractional clock is
// needed.
type Time int64

// Kind discriminates event types. The kernel does not interpret it; the
// handler does.
type Kind int32

// Event is a scheduled occurrence. Node and Child carry handler-defined
// payload (for this repository: tree node IDs).
type Event struct {
	at    Time
	seq   uint64
	index int32 // position in the heap, -1 when not queued
	Kind  Kind
	Node  int32
	Child int32
}

// At returns the simulated time at which the event will fire.
func (e *Event) At() Time { return e.at }

// Handler receives events as they fire.
type Handler interface {
	Handle(e *Event)
}

// Simulator owns the clock and the pending-event queue. It is not safe
// for concurrent use; run one Simulator per goroutine.
type Simulator struct {
	now     Time
	seq     uint64
	heap    []*Event
	free    []*Event
	handler Handler
	steps   uint64

	// Instrumentation counters, all maintained inline on the hot paths
	// (an integer increment each, no allocation).
	peakHeap  int    // most events ever queued simultaneously
	freeHits  uint64 // Schedule calls served from the free list
	allocs    uint64 // Schedule calls that allocated a new Event
	cancelled uint64 // events removed by Cancel
}

// New returns a simulator at time 0 that dispatches to h.
func New(h Handler) *Simulator {
	if h == nil {
		panic("sim: nil handler")
	}
	return &Simulator{handler: h}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.heap) }

// Steps returns the number of events dispatched so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// PeakPending returns the most events that were ever queued at once —
// the high-water mark of the event heap.
func (s *Simulator) PeakPending() int { return s.peakHeap }

// FreeListHits returns how many Schedule calls reused a recycled Event.
func (s *Simulator) FreeListHits() uint64 { return s.freeHits }

// Allocs returns how many Schedule calls allocated a fresh Event (free
// list empty). FreeListHits + Allocs equals the total Schedule count.
func (s *Simulator) Allocs() uint64 { return s.allocs }

// Cancelled returns how many queued events were removed by Cancel.
func (s *Simulator) Cancelled() uint64 { return s.cancelled }

// Reset returns the simulator to time 0 with an empty queue so it can
// run another simulation. Events still queued are recycled, and the free
// list is kept: a sweep that reuses one Simulator per worker serves the
// next run's Schedule calls from already-allocated events instead of
// starting cold (see engine.Runner). The per-run instrumentation
// counters (Steps, PeakPending, FreeListHits, Allocs, Cancelled) restart
// at zero; FreeListHits of a warm reused simulator therefore counts
// cross-run recycling as hits, which is the point.
func (s *Simulator) Reset() {
	for _, e := range s.heap {
		s.recycle(e)
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.steps = 0
	s.peakHeap = 0
	s.freeHits = 0
	s.allocs = 0
	s.cancelled = 0
}

// Schedule queues an event delay timesteps from now and returns it. The
// returned pointer is valid until the event fires or is cancelled. Delay
// must be non-negative.
func (s *Simulator) Schedule(delay Time, kind Kind, node, child int32) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		s.freeHits++
	} else {
		e = new(Event)
		s.allocs++
	}
	e.at = s.now + delay
	e.seq = s.seq
	s.seq++
	e.Kind = kind
	e.Node = node
	e.Child = child
	s.push(e)
	return e
}

// Cancel removes a queued event and returns the time that remained until
// it would have fired. Cancelling an event that already fired or was
// already cancelled panics: the caller's bookkeeping is broken and
// continuing would corrupt the recycled event.
func (s *Simulator) Cancel(e *Event) Time {
	if e.index < 0 {
		panic("sim: cancel of event not in queue")
	}
	remaining := e.at - s.now
	s.remove(e)
	s.recycle(e)
	s.cancelled++
	return remaining
}

// Step fires the next event, if any, and reports whether one fired.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	s.remove(e)
	if e.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %d -> %d", s.now, e.at))
	}
	s.now = e.at
	s.steps++
	s.handler.Handle(e)
	s.recycle(e)
	return true
}

// Run fires events until the queue is empty or maxSteps events have fired
// (0 means no limit). It returns the number of events fired.
func (s *Simulator) Run(maxSteps uint64) uint64 {
	fired := uint64(0)
	for maxSteps == 0 || fired < maxSteps {
		if !s.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunUntil fires events with time <= t, then sets the clock to t.
func (s *Simulator) RunUntil(t Time) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

func (s *Simulator) recycle(e *Event) {
	e.index = -1
	if len(s.free) < 1024 {
		s.free = append(s.free, e)
	}
}

// less orders the heap by (time, scheduling sequence).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) push(e *Event) {
	e.index = int32(len(s.heap))
	s.heap = append(s.heap, e)
	if len(s.heap) > s.peakHeap {
		s.peakHeap = len(s.heap)
	}
	s.up(int(e.index))
}

func (s *Simulator) remove(e *Event) {
	i := int(e.index)
	last := len(s.heap) - 1
	if i != last {
		s.heap[i] = s.heap[last]
		s.heap[i].index = int32(i)
	}
	s.heap = s.heap[:last]
	if i != last {
		if !s.up(i) {
			s.down(i)
		}
	}
	e.index = -1
}

// up restores the heap property upward from i and reports whether the
// element moved.
func (s *Simulator) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !less(s.heap[i], s.heap[parent]) {
			break
		}
		s.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (s *Simulator) down(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && less(s.heap[right], s.heap[left]) {
			smallest = right
		}
		if !less(s.heap[smallest], s.heap[i]) {
			return
		}
		s.swap(i, smallest)
		i = smallest
	}
}

func (s *Simulator) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].index = int32(i)
	s.heap[j].index = int32(j)
}
