package window

import (
	"math"
	"math/big"
	"testing"

	"bwcs/internal/rational"
	"bwcs/internal/sim"
)

// uniformCompletions returns completion times of n tasks finishing every
// step timesteps.
func uniformCompletions(n int, step sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = sim.Time(i+1) * step
	}
	return out
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New([]sim.Time{1, 2}, rational.Zero()); err == nil {
		t.Fatalf("accepted zero weight")
	}
	if _, err := New([]sim.Time{1, 2}, rational.FromInt(-1)); err == nil {
		t.Fatalf("accepted negative weight")
	}
	if _, err := New([]sim.Time{5, 3}, rational.One()); err == nil {
		t.Fatalf("accepted unsorted completions")
	}
}

func TestWindowsCount(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {10, 5}, {11, 5},
	} {
		s, err := New(uniformCompletions(tc.n, 3), rational.FromInt(3))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if got := s.Windows(); got != tc.want {
			t.Fatalf("Windows(%d tasks) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRateUniform(t *testing.T) {
	// Tasks complete every 4 steps: rate is exactly 1/4 in every window.
	s, err := New(uniformCompletions(100, 4), rational.FromInt(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for x := 1; x <= s.Windows(); x++ {
		if got := s.Rate(x); math.Abs(got-0.25) > 1e-12 {
			t.Fatalf("Rate(%d) = %v, want 0.25", x, got)
		}
		if got := s.Normalized(x); math.Abs(got-1) > 1e-12 {
			t.Fatalf("Normalized(%d) = %v, want 1", x, got)
		}
		// Exactly at optimal is not strictly above.
		if s.AboveOptimal(x) {
			t.Fatalf("AboveOptimal(%d) at exactly optimal rate", x)
		}
	}
}

func TestRateIndexOutOfRangePanics(t *testing.T) {
	s, _ := New(uniformCompletions(10, 1), rational.One())
	for _, x := range []int{0, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Rate(%d) did not panic", x)
				}
			}()
			s.Rate(x)
		}()
	}
}

func TestAboveOptimalExactArithmetic(t *testing.T) {
	// Optimal weight 10/3 (rate 0.3). Window 3 spans t_6 - t_3. Choose
	// completions so the window rate is exactly 3/10 then 3/(10-1).
	completions := []sim.Time{10, 20, 30, 40, 50, 60} // rate(3) = 3/30 = 1/10
	s, err := New(completions, rational.New(10, 1))   // optimal rate 1/10
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.AboveOptimal(3) {
		t.Fatalf("rate exactly optimal reported above")
	}
	// Shave one timestep off t_6: 3/29 > 1/10 is false... 3*10=30 > 29 ⇒ true.
	completions2 := []sim.Time{10, 20, 30, 40, 50, 59}
	s2, _ := New(completions2, rational.New(10, 1))
	if !s2.AboveOptimal(3) {
		t.Fatalf("rate just above optimal not detected")
	}
}

func TestZeroSpanWindow(t *testing.T) {
	// Tasks 1..4 all complete at t=7: every span is zero.
	s, err := New([]sim.Time{7, 7, 7, 7}, rational.One())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !s.AboveOptimal(1) || !s.AboveOptimal(2) {
		t.Fatalf("zero-span window not above optimal")
	}
	if s.Rate(1) <= 0 {
		t.Fatalf("zero-span rate not positive")
	}
}

func TestOnsetSecondCrossing(t *testing.T) {
	// Construct a run that is slow early, then slightly beats the optimal
	// rate from window 6 onward. Threshold 4 ⇒ crossings at 5? windows
	// 5,6,7...; the second crossing is the onset.
	n := 40
	completions := make([]sim.Time, n)
	tt := sim.Time(0)
	for i := 0; i < n; i++ {
		if i < 10 {
			tt += 20 // slow startup
		} else {
			tt += 9 // just faster than optimal weight 10
		}
		completions[i] = tt
	}
	s, err := New(completions, rational.FromInt(10))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first := -1
	var crossings []int
	for x := 5; x <= s.Windows(); x++ {
		if s.AboveOptimal(x) {
			crossings = append(crossings, x)
			if first < 0 {
				first = x
			}
		}
	}
	if len(crossings) < 2 {
		t.Fatalf("test construction broken: crossings %v", crossings)
	}
	got, ok := s.Onset(4)
	if !ok {
		t.Fatalf("Onset not detected")
	}
	if got != crossings[1] {
		t.Fatalf("Onset = %d, want second crossing %d", got, crossings[1])
	}
}

func TestOnsetRequiresTwoCrossings(t *testing.T) {
	// One early spike above optimal, then forever below: not reached.
	completions := []sim.Time{1, 2, 3, 4, 5, 6, 7, 8, 100, 200, 300, 400, 500, 600, 700, 800}
	s, err := New(completions, rational.FromInt(10))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	above := 0
	for x := 3; x <= s.Windows(); x++ {
		if s.AboveOptimal(x) {
			above++
		}
	}
	if above > 1 {
		t.Skipf("construction yielded %d crossings; adjust", above)
	}
	if _, ok := s.Onset(2); ok && above < 2 {
		t.Fatalf("onset with %d crossings", above)
	}
}

func TestOnsetDefaultThreshold(t *testing.T) {
	// With a negative threshold the default (300) applies; a 100-task run
	// has only 50 windows, so onset is impossible.
	s, err := New(uniformCompletions(100, 1), rational.New(2, 1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok := s.Onset(-1); ok {
		t.Fatalf("onset detected before threshold windows exist")
	}
}

func TestOnsetAfterThresholdOnly(t *testing.T) {
	// Rate is far above optimal everywhere; the detector must still wait
	// until after the threshold: onset at threshold+2 (second crossing).
	s, err := New(uniformCompletions(1000, 1), rational.FromInt(100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, ok := s.Onset(300)
	if !ok || got != 302 {
		t.Fatalf("Onset = %d,%v; want 302,true", got, ok)
	}
}

func TestNormalizedSeries(t *testing.T) {
	s, err := New(uniformCompletions(20, 5), rational.FromInt(5))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	series := s.NormalizedSeries()
	if len(series) != 10 {
		t.Fatalf("series length %d, want 10", len(series))
	}
	for i, v := range series {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("series[%d] = %v, want 1", i, v)
		}
	}
}

func TestFractionalOptimalWeight(t *testing.T) {
	// W = 7/3 (rate 3/7 ≈ 0.4286). Completions every 2 steps give rate
	// 1/2 > 3/7 in every window.
	s, err := New(uniformCompletions(50, 2), rational.New(7, 3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for x := 1; x <= s.Windows(); x++ {
		if !s.AboveOptimal(x) {
			t.Fatalf("window %d not above optimal", x)
		}
	}
	got, ok := s.Onset(5)
	if !ok || got != 7 {
		t.Fatalf("Onset = %d,%v, want 7,true", got, ok)
	}
}

func TestAtOrAboveOptimal(t *testing.T) {
	// Exactly periodic at the optimal rate: never strictly above, always
	// at-or-above.
	s, err := New(uniformCompletions(800, 4), rational.FromInt(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, x := range []int{1, 100, 400} {
		if s.AboveOptimal(x) {
			t.Fatalf("strictly above at exact rate")
		}
		if !s.AtOrAboveOptimal(x) {
			t.Fatalf("not at-or-above at exact rate")
		}
	}
	if _, ok := s.Onset(300); ok {
		t.Fatalf("strict onset detected on exactly-periodic run")
	}
	got, ok := s.OnsetInclusive(300)
	if !ok || got != 302 {
		t.Fatalf("OnsetInclusive = %d,%v, want 302,true", got, ok)
	}
}

func TestAtOrAboveOptimalOutOfRangePanics(t *testing.T) {
	s, _ := New(uniformCompletions(10, 1), rational.One())
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	s.AtOrAboveOptimal(0)
}

func TestInclusiveBelowOptimalStillFails(t *testing.T) {
	// Just below optimal everywhere: neither detector fires.
	s, err := New(uniformCompletions(800, 5), rational.FromInt(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok := s.OnsetInclusive(300); ok {
		t.Fatalf("inclusive onset fired below optimal")
	}
}

// TestOnsetScanZeroAllocs pins the int64 fast path: a full onset scan
// over a realistic series must not allocate at all. The detector used to
// build four big.Ints per window comparison, which at paper scale (10k
// tasks ⇒ 5k windows per tree) was tens of thousands of allocations per
// tree for an int64-sized question.
func TestOnsetScanZeroAllocs(t *testing.T) {
	completions := uniformCompletions(2000, 7)
	// Perturb the tail so the scan sees both outcomes of the comparison.
	for i := 1200; i < len(completions); i++ {
		completions[i] -= sim.Time(i - 1200)
	}
	s, err := New(completions, rational.New(22, 3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !s.fits64 {
		t.Fatalf("paper-sized weight did not take the int64 fast path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Onset(DefaultThreshold)
		s.OnsetInclusive(DefaultThreshold)
	})
	if allocs != 0 {
		t.Fatalf("onset scan allocates %.0f times, want 0", allocs)
	}
}

// TestNormalizedZeroAllocs: the optimal-rate float is computed once in
// New, so Normalized/NormalizedSeries no longer build a big.Rat per call.
func TestNormalizedZeroAllocs(t *testing.T) {
	s, err := New(uniformCompletions(200, 4), rational.New(9, 2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for x := 1; x <= s.Windows(); x++ {
			s.Normalized(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("Normalized allocates %.0f times per sweep, want 0", allocs)
	}
}

// TestBigWeightFallback: a weight whose numerator overflows int64 routes
// through the big.Int scratch path and still compares exactly.
func TestBigWeightFallback(t *testing.T) {
	// W = (2^80)/3 — rate 3/2^80, far below every windowed rate here.
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	s, err := New(uniformCompletions(100, 5), rational.FromBig(huge))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.fits64 {
		t.Fatalf("2^80/3 claimed to fit in int64")
	}
	for x := 1; x <= s.Windows(); x++ {
		if !s.AboveOptimal(x) {
			t.Fatalf("window %d: rate 1/5 not above 3/2^80", x)
		}
	}
	// And a huge weight matching the series exactly: W = 5·2^70/2^70.
	// big.Rat normalizes that back to 5, so force a non-reducible huge
	// pair instead: rate 2^70/(5·2^70 + 1) is just below 1/5.
	den := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(5), 70), big.NewInt(1))
	just := new(big.Rat).SetFrac(den, new(big.Int).Lsh(big.NewInt(1), 70))
	s2, err := New(uniformCompletions(100, 5), rational.FromBig(just))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for x := 1; x <= s2.Windows(); x++ {
		if !s2.AboveOptimal(x) {
			t.Fatalf("window %d: rate 1/5 not above (1/5 − ε)", x)
		}
		if !s2.AtOrAboveOptimal(x) {
			t.Fatalf("window %d: AtOrAboveOptimal disagrees with AboveOptimal", x)
		}
	}
}

// TestFastPathMatchesBigInt cross-checks the 128-bit fast path against
// the big.Int scratch path over a grid of weights and spans, including
// products far beyond 64 bits.
func TestFastPathMatchesBigInt(t *testing.T) {
	completions := []sim.Time{
		1, 2, 3, 1 << 40, 1<<40 + 1, 1 << 62, 1<<62 + 1, 1<<62 + 2,
	}
	weights := []rational.Rat{
		rational.New(1, 1),
		rational.New(3, 7),
		rational.New(1<<62, 3),
		rational.New(3, 1<<62),
		rational.New((1<<62)+1, (1<<61)+3),
	}
	for _, w := range weights {
		s, err := New(completions, w)
		if err != nil {
			t.Fatalf("New(%v): %v", w, err)
		}
		if !s.fits64 {
			t.Fatalf("weight %v should fit in int64", w)
		}
		for x := 1; x <= s.Windows(); x++ {
			dt := s.span(x)
			if dt == 0 {
				continue
			}
			want := new(big.Int).Mul(big.NewInt(int64(x)), s.optNum).Cmp(
				new(big.Int).Mul(big.NewInt(int64(dt)), s.optDen))
			if got := s.cmpOptimal(x, dt); got != want {
				t.Fatalf("weight %v window %d (dt=%d): fast path %d, big.Int %d", w, x, dt, got, want)
			}
		}
	}
}
