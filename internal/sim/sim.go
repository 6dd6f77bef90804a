// Package sim is a deterministic discrete-event simulation kernel, the
// substrate on which the scheduling protocols execute.
//
// The paper evaluated its protocols on the Simgrid toolkit; this package
// is the from-scratch equivalent sized to the paper's model: an integer
// clock, delays that are a communication time c <= 100 or a computation
// time w <= 10,000, and a pending set of O(nodes) events. The queue is
// therefore a bucket queue on the clock, not a comparison heap: a ring of
// time slots (at modulo a power-of-two span), one FIFO list per slot, and
// an occupancy bitmap with a summary level that finds the next non-empty
// slot in a few TrailingZeros64. Schedule, Step and Cancel are O(1) — the
// interruptible-communication protocol shelves in-flight transfers, which
// requires removing their completion events from the queue. The ring
// starts at 64 slots and doubles to fit the delays a run schedules, up to
// 16,384; a delay at or beyond that goes to a small sorted far store that
// Step merges with the ring by (time, sequence).
//
// Determinism: events fire in (time, sequence) order, where sequence is
// the order of scheduling. Pending ring events lie within one span of the
// clock, so a slot holds a single time value and its list, appended to
// in scheduling order, is already in sequence order. Two runs over the
// same inputs produce identical event orders, which the test suite and
// reproducible experiments rely on.
//
// Events are allocated from an internal free list and recycled after they
// fire or are cancelled; callers must not retain an *Event after either.
package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

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
	at         Time
	seq        uint64
	next, prev *Event // neighbours in the slot's circular list (ring events only)
	index      int32  // inRing or inFar while queued, -1 when not
	Kind       Kind
	Node       int32
	Child      int32
}

// Event.index values while queued.
const (
	inRing int32 = iota
	inFar
)

const (
	minSpan = 64      // the ring a Simulator starts with: one bitmap word
	maxSpan = 1 << 14 // the ring never outgrows this; the paper's w <= 10,000 fits
)

// Handler receives events as they fire.
type Handler interface {
	Handle(e *Event)
}

// Simulator owns the clock and the pending-event queue. It is not safe
// for concurrent use; run one Simulator per goroutine.
type Simulator struct {
	now Time
	seq uint64

	// The ring: slots[at&(len(slots)-1)] heads the circular list of the
	// events due at at, in scheduling order. Every ring event satisfies
	// now <= at < now+len(slots), so no two times share a slot. occ has a
	// bit per non-empty slot and sum a bit per non-zero occ word.
	slots []*Event
	occ   []uint64
	sum   [maxSpan >> 12]uint64
	near  int // events in the ring

	// far holds the events scheduled maxSpan or more ahead, sorted by
	// (at, seq). They stay here even once the clock comes within a span
	// of them: moving one into a slot could put it behind a later-
	// scheduled event of the same time.
	far []*Event

	free    []*Event
	handler Handler
	steps   uint64

	// Instrumentation counters, all maintained inline on the hot paths
	// (an integer increment each, no allocation).
	peakPending int    // most events ever queued simultaneously
	freeHits    uint64 // Schedule calls served from the free list
	allocs      uint64 // Schedule calls that allocated a new Event
	cancelled   uint64 // events removed by Cancel

	// Pads the struct to four cache lines, a size the allocator aligns:
	// a sweep's workers allocate their Simulators back to back, and at
	// 208 bytes one's counters shared a line with the next one's clock,
	// both written on every event — two workers then ran slower than one.
	// TestSimulatorFillsCacheLines pins the size.
	_ [48]byte
}

// New returns a simulator at time 0 that dispatches to h.
func New(h Handler) *Simulator {
	if h == nil {
		panic("sim: nil handler")
	}
	s := &Simulator{handler: h}
	s.grow(minSpan)
	return s
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.near + len(s.far) }

// Steps returns the number of events dispatched so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// PeakPending returns the most events that were ever queued at once —
// the high-water mark of the event queue.
func (s *Simulator) PeakPending() int { return s.peakPending }

// FreeListHits returns how many Schedule calls reused a recycled Event.
func (s *Simulator) FreeListHits() uint64 { return s.freeHits }

// Allocs returns how many Schedule calls allocated a fresh Event (free
// list empty). FreeListHits + Allocs equals the total Schedule count.
func (s *Simulator) Allocs() uint64 { return s.allocs }

// Cancelled returns how many queued events were removed by Cancel.
func (s *Simulator) Cancelled() uint64 { return s.cancelled }

// Reset returns the simulator to time 0 with an empty queue so it can
// run another simulation. Events still queued are recycled, and the free
// list and the ring (at the size earlier runs grew it to) are kept: a
// sweep that reuses one Simulator per worker serves the next run's
// Schedule calls from already-allocated events instead of starting cold
// (see engine.Runner). The per-run instrumentation counters (Steps,
// PeakPending, FreeListHits, Allocs, Cancelled) restart at zero;
// FreeListHits of a warm reused simulator therefore counts cross-run
// recycling as hits, which is the point.
func (s *Simulator) Reset() {
	for e := s.peek(); e != nil; e = s.peek() {
		s.dequeue(e)
		s.recycle(e)
	}
	s.now = 0
	s.seq = 0
	s.steps = 0
	s.peakPending = 0
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
	if delay >= Time(len(s.slots)) && delay < maxSpan {
		s.grow(1 << bits.Len64(uint64(delay)))
	}
	if delay < Time(len(s.slots)) {
		s.link(e)
	} else {
		// Later-scheduled, so after every far event of the same time.
		e.index = inFar
		i, _ := slices.BinarySearchFunc(s.far, e, cmpEvents)
		s.far = slices.Insert(s.far, i, e)
	}
	if n := s.Pending(); n > s.peakPending {
		s.peakPending = n
	}
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
	s.dequeue(e)
	s.recycle(e)
	s.cancelled++
	return remaining
}

// Step fires the next event, if any, and reports whether one fired.
func (s *Simulator) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// fire dispatches e, which must be what peek returned.
func (s *Simulator) fire(e *Event) {
	s.dequeue(e)
	if e.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %d -> %d", s.now, e.at))
	}
	s.now = e.at
	s.steps++
	s.handler.Handle(e)
	s.recycle(e)
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

func (s *Simulator) recycle(e *Event) {
	if len(s.free) < 1024 {
		s.free = append(s.free, e)
	}
}

// cmpEvents orders events by (time, scheduling sequence).
func cmpEvents(a, b *Event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// peek returns the event that fires next — the head of the first occupied
// slot in ring order from the clock's own, or the far store's first if
// that one is earlier — and nil when nothing is queued.
func (s *Simulator) peek() *Event {
	var e *Event
	if s.near > 0 {
		e = s.slots[s.nextSlot()]
	}
	if len(s.far) > 0 && (e == nil || cmpEvents(s.far[0], e) < 0) {
		e = s.far[0]
	}
	return e
}

// nextSlot returns the first occupied slot in ring order from the clock's
// own, which is time order. The ring must not be empty.
func (s *Simulator) nextSlot() int {
	from := int(s.now) & (len(s.slots) - 1)
	w := from >> 6
	if m := s.occ[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// The first non-empty word after w, else the first from the start of
	// the ring — which is w itself when only bits below from remain.
	w = nextBit(s.sum[:], w+1)
	if w < 0 {
		w = nextBit(s.sum[:], 0)
	}
	return w<<6 + bits.TrailingZeros64(s.occ[w])
}

// nextBit returns the index of the first set bit of b at or after i, or -1.
func nextBit(b []uint64, i int) int {
	for w := i >> 6; w < len(b); w++ {
		m := b[w]
		if w == i>>6 {
			m &= ^uint64(0) << (i & 63)
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// link appends e to the list of its time's slot.
func (s *Simulator) link(e *Event) {
	e.index = inRing
	s.near++
	i := int(e.at) & (len(s.slots) - 1)
	h := s.slots[i]
	if h == nil {
		e.next, e.prev = e, e
		s.occupy(i, e)
		return
	}
	e.next, e.prev = h, h.prev
	h.prev.next = e
	h.prev = e
}

// occupy makes h the head of empty slot i.
func (s *Simulator) occupy(i int, h *Event) {
	s.slots[i] = h
	s.occ[i>>6] |= 1 << (i & 63)
	s.sum[i>>12] |= 1 << (i >> 6 & 63)
}

// dequeue removes a queued event from the ring or the far store.
func (s *Simulator) dequeue(e *Event) {
	far := e.index == inFar
	e.index = -1
	if far {
		i, _ := slices.BinarySearchFunc(s.far, e, cmpEvents)
		s.far = slices.Delete(s.far, i, i+1)
		return
	}
	s.near--
	i := int(e.at) & (len(s.slots) - 1)
	if e.next == e {
		s.slots[i] = nil
		s.occ[i>>6] &^= 1 << (i & 63)
		if s.occ[i>>6] == 0 {
			s.sum[i>>12] &^= 1 << (i >> 6 & 63)
		}
	} else {
		e.prev.next = e.next
		e.next.prev = e.prev
		if s.slots[i] == e {
			s.slots[i] = e.next
		}
	}
	e.next, e.prev = nil, nil
}

// grow replaces the ring with one of span slots (a power of two, larger
// than the current ring). Each slot's list moves whole: its events share
// one time, hence one new slot.
func (s *Simulator) grow(span int) {
	old := s.slots
	s.slots = make([]*Event, span)
	s.occ = make([]uint64, span/64)
	s.sum = [len(s.sum)]uint64{}
	for _, h := range old {
		if h != nil {
			s.occupy(int(h.at)&(span-1), h)
		}
	}
}
