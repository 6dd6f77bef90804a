// Package window implements the paper's steady-state analysis methodology
// (Section 4.1): throughput over a sliding, growing window, and the
// empirical onset-of-steady-state detector.
//
// Determining when an execution reaches steady state is hard — the
// bandwidth-centric theorem gives the optimal rate but its period has no
// practical bound. The paper therefore measures the average rate in a
// window that grows with the run: the value plotted at window index x is
// the rate between the completion of task x and the completion of task 2x,
//
//	rate(x) = (2x − x) / (t_{2x} − t_x) = x / (t_{2x} − t_x),
//
// so that late windows exclude startup but cover a full period.
//
// A tree is deemed to have reached the optimal steady state when its
// windowed rate goes above the optimal rate for the second time after
// window 300 (the paper found that non-reaching trees show at most one
// such point, reaching trees more than one). The comparison
// rate(x) > R = 1/W is evaluated exactly in integer arithmetic:
// x·Wnum > (t_{2x} − t_x)·Wden.
package window

import (
	"fmt"
	"math/big"
	"math/bits"

	"bwcs/internal/rational"
	"bwcs/internal/sim"
)

// DefaultThreshold is the window index after which the paper's onset
// detector starts counting above-optimal points.
const DefaultThreshold = 300

// Series is the windowed-rate view of one run. A Series caches scratch
// state for its comparisons, so it is not safe for concurrent use; build
// one Series per goroutine.
type Series struct {
	completions []sim.Time
	optNum      *big.Int // numerator of the optimal weight W
	optDen      *big.Int // denominator of W
	optRate     float64  // 1/W as a float, computed once

	// Fast path: when W's numerator and denominator both fit in an
	// int64, the exact comparison x·Wnum vs Δt·Wden is done with a
	// 128-bit product (bits.Mul64) — the full product of two uint64s
	// always fits in 128 bits, so the fast path never loses exactness
	// and never allocates. The big.Int scratch below is touched only
	// when W itself overflows int64 (platforms far beyond the paper's).
	num64, den64 uint64
	fits64       bool
	xScratch     big.Int
	dtScratch    big.Int
	lhsScratch   big.Int
	rhsScratch   big.Int
}

// New returns a Series over the completion times of a run (ascending, as
// produced by the engine) measured against the optimal steady-state weight
// optWeight = wtree (time per task; the optimal rate is 1/optWeight).
func New(completions []sim.Time, optWeight rational.Rat) (*Series, error) {
	if optWeight.Sign() <= 0 {
		return nil, fmt.Errorf("window: optimal weight %v must be positive", optWeight)
	}
	for i := 1; i < len(completions); i++ {
		if completions[i] < completions[i-1] {
			return nil, fmt.Errorf("window: completions not ascending at %d", i)
		}
	}
	s := &Series{
		completions: completions,
		optNum:      optWeight.Num(),
		optDen:      optWeight.Den(),
	}
	s.optRate, _ = new(big.Rat).SetFrac(s.optDen, s.optNum).Float64() // 1/W
	if s.optNum.IsInt64() && s.optDen.IsInt64() {
		// Sign() > 0 and big.Rat normalization guarantee both parts
		// are positive, so the uint64 conversions are exact.
		s.num64 = uint64(s.optNum.Int64())
		s.den64 = uint64(s.optDen.Int64())
		s.fits64 = true
	}
	return s, nil
}

// cmpOptimal compares the windowed rate x/dt against the optimal rate
// 1/W exactly: it returns the sign of x·Wnum − dt·Wden. Both x and dt
// are positive by construction.
func (s *Series) cmpOptimal(x int, dt sim.Time) int {
	if s.fits64 {
		lhsHi, lhsLo := bits.Mul64(uint64(x), s.num64)
		rhsHi, rhsLo := bits.Mul64(uint64(dt), s.den64)
		if lhsHi != rhsHi {
			if lhsHi > rhsHi {
				return 1
			}
			return -1
		}
		if lhsLo != rhsLo {
			if lhsLo > rhsLo {
				return 1
			}
			return -1
		}
		return 0
	}
	lhs := s.lhsScratch.Mul(s.xScratch.SetInt64(int64(x)), s.optNum)
	rhs := s.rhsScratch.Mul(s.dtScratch.SetInt64(int64(dt)), s.optDen)
	return lhs.Cmp(rhs)
}

// Windows returns the number of valid window indices: window x needs task
// 2x to have completed, so indices run 1..len/2.
func (s *Series) Windows() int { return len(s.completions) / 2 }

// span returns t_{2x} − t_x for window x (1-based).
func (s *Series) span(x int) sim.Time {
	return s.completions[2*x-1] - s.completions[x-1]
}

// Rate returns the windowed rate x/(t_{2x}−t_x) for window x in 1..Windows.
// A zero time span (tasks x through 2x finishing at one instant) is
// treated as a span of one timestep, so Rate returns x; AboveOptimal, which
// compares exactly, reports such a window as above optimal.
func (s *Series) Rate(x int) float64 {
	if x < 1 || x > s.Windows() {
		panic(fmt.Sprintf("window: index %d out of range 1..%d", x, s.Windows()))
	}
	dt := s.span(x)
	if dt == 0 {
		return float64(x) // degenerate; treat the span as one timestep
	}
	return float64(x) / float64(dt)
}

// Normalized returns Rate(x) divided by the optimal rate — the y-axis of
// the paper's Figure 3. Values hover around 1 when the tree runs at the
// optimal steady-state rate.
func (s *Series) Normalized(x int) float64 {
	return s.Rate(x) / s.optRate
}

// AboveOptimal reports whether the windowed rate at x strictly exceeds the
// optimal rate, compared exactly: x/(t_{2x}−t_x) > 1/W  ⇔  x·W > Δt.
func (s *Series) AboveOptimal(x int) bool {
	if x < 1 || x > s.Windows() {
		panic(fmt.Sprintf("window: index %d out of range 1..%d", x, s.Windows()))
	}
	dt := s.span(x)
	if dt == 0 {
		return true
	}
	return s.cmpOptimal(x, dt) > 0
}

// AtOrAboveOptimal reports whether the windowed rate at x is at least the
// optimal rate.
func (s *Series) AtOrAboveOptimal(x int) bool {
	if x < 1 || x > s.Windows() {
		panic(fmt.Sprintf("window: index %d out of range 1..%d", x, s.Windows()))
	}
	dt := s.span(x)
	if dt == 0 {
		return true
	}
	return s.cmpOptimal(x, dt) >= 0
}

// Onset runs the paper's detector: scanning windows strictly after the
// threshold index, it returns the index of the second window whose rate
// exceeds the optimal rate, and ok=true. If fewer than two such windows
// exist the tree did not reach the optimal steady state and ok is false.
func (s *Series) Onset(threshold int) (window int, ok bool) {
	return s.onset(threshold, (*Series).AboveOptimal)
}

// OnsetInclusive is Onset with an at-or-above comparison. The paper's
// strict criterion relies on the discreteness wiggle of large random
// trees; a platform whose schedule is exactly periodic at the optimal rate
// never goes strictly above it and would be misclassified. Library users
// analysing individual (often small, regular) platforms should prefer this
// variant; the experiment harness keeps the strict one for fidelity.
func (s *Series) OnsetInclusive(threshold int) (window int, ok bool) {
	return s.onset(threshold, (*Series).AtOrAboveOptimal)
}

func (s *Series) onset(threshold int, above func(*Series, int) bool) (int, bool) {
	if threshold < 0 {
		threshold = DefaultThreshold
	}
	count := 0
	for x := threshold + 1; x <= s.Windows(); x++ {
		if above(s, x) {
			count++
			if count == 2 {
				return x, true
			}
		}
	}
	return 0, false
}

// NormalizedSeries returns the normalized rate for every window index
// 1..Windows, for plotting Figure 3-style curves.
func (s *Series) NormalizedSeries() []float64 {
	out := make([]float64, s.Windows())
	for x := 1; x <= s.Windows(); x++ {
		out[x-1] = s.Normalized(x)
	}
	return out
}
