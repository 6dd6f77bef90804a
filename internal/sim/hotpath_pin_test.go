package sim

import (
	"testing"
	"unsafe"
)

// TestHotPathAllocsPinned is the allocation gate for this package: the
// schedule/step cycle (Schedule, Step, Run, Cancel, and the
// queue plumbing under them) runs allocation-free once the free list is
// warm.
func TestHotPathAllocsPinned(t *testing.T) {
	s := New(nopHandler{})
	cycle := func() {
		// Mixed schedule ladder across several slots, plus a cancellation
		// mid-queue.
		e1 := s.Schedule(5, 1, 0, 0)
		s.Schedule(3, 2, 1, 0)
		s.Schedule(9, 3, 2, 1)
		s.Cancel(e1)
		for s.Step() {
		}
		s.Schedule(4, 1, 0, 0)
		s.Step()
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

// TestSimulatorFillsCacheLines: Simulators of neighbouring sweep workers
// must not share a cache line (see the padding at the end of the struct),
// which holds when the size is a multiple of the line that is also a size
// class of the allocator.
func TestSimulatorFillsCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit words")
	}
	if size := unsafe.Sizeof(Simulator{}); size != 256 {
		t.Fatalf("Simulator is %d bytes, want 256: adjust its padding", size)
	}
}
