package sim

import "testing"

// collect is a test handler that records fired events by value.
type collect struct {
	fired []Event
}

func (c *collect) Handle(e *Event) { c.fired = append(c.fired, *e) }

// TestFreeListRecyclesAfterFire: an event that fires goes back to the
// free list and the very next Schedule reuses its memory.
func TestFreeListRecyclesAfterFire(t *testing.T) {
	h := &collect{}
	s := New(h)
	e1 := s.Schedule(5, 1, 10, 20)
	if !s.Step() {
		t.Fatalf("no event fired")
	}
	e2 := s.Schedule(7, 2, 30, 40)
	if e1 != e2 {
		t.Fatalf("fired event was not recycled: %p vs %p", e1, e2)
	}
	if got := s.FreeListHits(); got != 1 {
		t.Fatalf("free-list hits = %d, want 1", got)
	}
	if got := s.Allocs(); got != 1 {
		t.Fatalf("allocs = %d, want 1", got)
	}
	if e2.Kind != 2 || e2.Node != 30 || e2.Child != 40 || e2.at != 5+7 {
		t.Fatalf("recycled event carries stale payload: %+v", *e2)
	}
}

// TestFreeListRecyclesAfterCancel: a cancelled event is recycled the
// same way, and Cancel reports the remaining time.
func TestFreeListRecyclesAfterCancel(t *testing.T) {
	s := New(&collect{})
	s.Schedule(1, 1, 0, 0)
	e := s.Schedule(9, 1, 1, 0)
	if !s.Step() { // advance the clock to t=1
		t.Fatalf("no event fired")
	}
	if rem := s.Cancel(e); rem != 8 {
		t.Fatalf("remaining = %d, want 8", rem)
	}
	if got := s.Cancelled(); got != 1 {
		t.Fatalf("cancelled = %d, want 1", got)
	}
	if e2 := s.Schedule(1, 1, 2, 0); e2 != e {
		t.Fatalf("cancelled event was not recycled")
	}
}

// TestResetKeepsFreeListWarm: Reset clears the clock, queue and per-run
// counters but keeps the free list, so the next run's Schedule calls are
// served from recycled events instead of allocating cold.
func TestResetKeepsFreeListWarm(t *testing.T) {
	s := New(&collect{})
	for i := 0; i < 4; i++ {
		s.Schedule(Time(i+1), 1, int32(i), 0)
	}
	s.Step()
	s.Step() // two fired, two still queued

	s.Reset()
	if s.Now() != 0 || s.Steps() != 0 || s.Pending() != 0 || s.PeakPending() != 0 {
		t.Fatalf("reset left state behind: now=%d steps=%d pending=%d peak=%d",
			s.Now(), s.Steps(), s.Pending(), s.PeakPending())
	}
	if s.FreeListHits() != 0 || s.Allocs() != 0 || s.Cancelled() != 0 {
		t.Fatalf("reset left counters: hits=%d allocs=%d cancelled=%d",
			s.FreeListHits(), s.Allocs(), s.Cancelled())
	}

	// All four events from the first run (fired and still-queued alike)
	// are now in the free list: the warm run allocates nothing.
	for i := 0; i < 4; i++ {
		s.Schedule(Time(i+1), 2, int32(i), 0)
	}
	if s.Allocs() != 0 {
		t.Fatalf("warm run allocated %d events, want 0", s.Allocs())
	}
	if s.FreeListHits() != 4 {
		t.Fatalf("warm run free-list hits = %d, want 4", s.FreeListHits())
	}
	// And the second run is a working simulation from t=0.
	if !s.Step() {
		t.Fatalf("no event fired after reset")
	}
	if s.Now() != 1 {
		t.Fatalf("clock after first post-reset event = %d, want 1", s.Now())
	}
}

// TestResetDeterministicReplay: the same schedule drives identical event
// orders before and after a Reset — reuse cannot leak state that changes
// scheduling.
func TestResetDeterministicReplay(t *testing.T) {
	run := func(s *Simulator, h *collect) []Event {
		h.fired = nil
		s.Schedule(3, 1, 1, 0)
		s.Schedule(3, 2, 2, 0)
		e := s.Schedule(1, 3, 3, 0)
		s.Schedule(2, 4, 4, 0)
		s.Cancel(e)
		s.Run(0)
		return h.fired
	}
	h := &collect{}
	s := New(h)
	first := run(s, h)
	s.Reset()
	second := run(s, h)
	if len(first) != len(second) {
		t.Fatalf("replay lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].at != second[i].at || first[i].seq != second[i].seq ||
			first[i].Kind != second[i].Kind || first[i].Node != second[i].Node {
			t.Fatalf("event %d differs after reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestCancelHeavyConsistency drives an IC-shelving-like workload — a
// rolling window of scheduled events where a fixed fraction is cancelled
// before it can fire — and checks the kernel's books stay balanced
// throughout: Pending tracks live events exactly, Steps counts only
// fired events, fired+cancelled equals scheduled, and the free list
// bounds allocations to the window's width.
func TestCancelHeavyConsistency(t *testing.T) {
	h := &collect{}
	s := New(h)

	const rounds = 5000
	live := make([]*Event, 0, 8)
	scheduled, cancelled := 0, 0
	for i := 0; i < rounds; i++ {
		// Keep an 8-wide window of pending events.
		for len(live) < 8 {
			live = append(live, s.Schedule(Time(1+(i+len(live))%13), Kind(1), int32(i), 0))
			scheduled++
		}
		if i%3 == 0 {
			// Cancel the event most recently scheduled (deterministically
			// "shelve" it), like the IC protocol preempting a send.
			e := live[len(live)-1]
			live = live[:len(live)-1]
			before := s.Pending()
			if rem := s.Cancel(e); rem < 0 {
				t.Fatalf("round %d: negative remaining %d", i, rem)
			}
			cancelled++
			if s.Pending() != before-1 {
				t.Fatalf("round %d: cancel did not shrink the queue: %d -> %d", i, before, s.Pending())
			}
		} else {
			before := s.Pending()
			stepsBefore := s.Steps()
			if !s.Step() {
				t.Fatalf("round %d: queue unexpectedly empty", i)
			}
			if s.Steps() != stepsBefore+1 {
				t.Fatalf("round %d: Steps did not advance by one", i)
			}
			if s.Pending() != before-1 {
				t.Fatalf("round %d: fire did not shrink the queue: %d -> %d", i, before, s.Pending())
			}
			// Drop the fired event from our shadow window (it is whichever
			// live pointer just fired; match by index invariants instead of
			// pointer identity, which recycling invalidates).
			fired := h.fired[len(h.fired)-1]
			found := false
			for j := range live {
				if live[j].index < 0 && live[j].Kind == fired.Kind {
					live = append(live[:j], live[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("round %d: fired event not in the shadow window", i)
			}
		}
	}

	if int(s.Steps())+cancelled+s.Pending() != scheduled {
		t.Fatalf("books unbalanced: %d fired + %d cancelled + %d pending != %d scheduled",
			s.Steps(), cancelled, s.Pending(), scheduled)
	}
	if s.FreeListHits()+s.Allocs() != uint64(scheduled) {
		t.Fatalf("free-list hits %d + allocs %d != %d schedules", s.FreeListHits(), s.Allocs(), scheduled)
	}
	// Only the window's width (plus one in-flight) ever needs distinct
	// Event allocations; everything else must come from recycling.
	if s.Allocs() > 9 {
		t.Fatalf("allocs = %d, want <= 9 (free list not recycling)", s.Allocs())
	}
	if got := s.PeakPending(); got != 8 {
		t.Fatalf("peak pending = %d, want 8", got)
	}
}
