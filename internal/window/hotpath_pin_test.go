package window

import (
	"testing"

	"bwcs/internal/rational"
	"bwcs/internal/sim"
)

// TestHotPathAllocsPinned is the allocation gate for this package: the
// windowed onset scan (Onset, OnsetInclusive, AboveOptimal,
// AtOrAboveOptimal, Windows and the comparison helpers under
// them) runs allocation-free on the int64 fast path.
func TestHotPathAllocsPinned(t *testing.T) {
	completions := uniformCompletions(1500, 6)
	// Dent the tail so both branches of every comparison run.
	for i := 900; i < len(completions); i++ {
		completions[i] -= sim.Time(i - 900)
	}
	s, err := New(completions, rational.New(19, 3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !s.fits64 {
		t.Fatalf("paper-sized weight did not take the int64 fast path")
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.Onset(DefaultThreshold)
		s.OnsetInclusive(DefaultThreshold)
		for x := 1; x <= s.Windows(); x += 97 {
			s.AboveOptimal(x)
			s.AtOrAboveOptimal(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("onset hot path allocates %.0f times, want 0", allocs)
	}
}
