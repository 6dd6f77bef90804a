package stats

import (
	"math/rand/v2"
	"testing"
)

// TestCounterMatchesSliceStats: on random multisets, every Counter order
// statistic equals the sorted-slice computation exactly.
func TestCounterMatchesSliceStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(400)
		vs := make([]int64, n)
		c := NewCounter()
		for i := range vs {
			vs[i] = int64(rng.IntN(60))
			c.Add(vs[i])
		}
		if c.Total() != int64(n) {
			t.Fatalf("trial %d: total %d, want %d", trial, c.Total(), n)
		}
		if got, want := c.Median(), Median(vs); got != want {
			t.Fatalf("trial %d: median %d, want %d", trial, got, want)
		}
		for _, x := range []int64{-1, 0, 1, 5, 30, 59, 60, 1000} {
			var want int64
			for _, v := range vs {
				if v <= x {
					want++
				}
			}
			if got := c.CountAtMost(x); got != want {
				t.Fatalf("trial %d: CountAtMost(%d) = %d, want %d", trial, x, got, want)
			}
		}
	}
}

// TestCounterEmptyPanics: an empty counter's median panics, like the
// slice function's.
func TestCounterEmptyPanics(t *testing.T) {
	if got := NewCounter().CountAtMost(5); got != 0 {
		t.Fatalf("empty CountAtMost = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("median of empty counter did not panic")
		}
	}()
	NewCounter().Median()
}
