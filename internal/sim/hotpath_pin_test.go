package sim

import "testing"

// TestHotPathAllocsPinned is the allocation gate for this package: the
// schedule/step cycle (Schedule, Step, Run, RunUntil, Cancel, and the
// heap plumbing under them) runs allocation-free once the free list is
// warm.
func TestHotPathAllocsPinned(t *testing.T) {
	s := New(nopHandler{})
	cycle := func() {
		// Mixed schedule ladder so push/up and remove/down/swap all
		// move entries, plus a cancellation mid-queue.
		e1 := s.Schedule(5, 1, 0, 0)
		s.Schedule(3, 2, 1, 0)
		s.Schedule(9, 3, 2, 1)
		s.Cancel(e1)
		for s.Step() {
		}
		s.Schedule(4, 1, 0, 0)
		s.RunUntil(s.Now() + 10)
		s.Schedule(2, 2, 1, 1)
		s.Run(8)
	}
	cycle() // warm the free list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm schedule/step cycle allocates %.0f times, want 0", allocs)
	}
	if s.Allocs() > 4 {
		t.Fatalf("free list allocated %d events for a 4-deep ladder", s.Allocs())
	}
}
