package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{1, 2, 3}, 2},
		{[]int64{3, 1, 2}, 2},
		{[]int64{1, 2, 3, 4}, 2},
		{[]int64{10, 20}, 15},
		{[]int64{-5, 5, 100}, 5},
	}
	for _, tc := range cases {
		if got := Median(tc.in); got != tc.want {
			t.Fatalf("Median(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// Median must not mutate its input.
	in := []int64{3, 1, 2}
	Median(in)
	if !slices.Equal(in, []int64{3, 1, 2}) {
		t.Fatalf("Median mutated input: %v", in)
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"median": func() { Median(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic")
				}
			}()
			fn()
		})
	}
}

// TestPropertyMedianAndPercentileAgree checks Median against the
// nearest-rank 50th percentile of a sorted copy, which it equals on odd
// lengths.
func TestPropertyMedianAndPercentileAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	for i := 0; i < 100; i++ {
		n := rng.IntN(99)*2 + 1
		vs := make([]int64, n)
		for j := range vs {
			vs[j] = rng.Int64N(1000)
		}
		sorted := slices.Sorted(slices.Values(vs))
		if p50 := sorted[(n+1)/2-1]; Median(vs) != p50 {
			t.Fatalf("median %d != P50 %d for %v", Median(vs), p50, vs)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int64{0, 5, 9, 10, 15, 25, 99} {
		h.Add(v)
	}
	if h.Total != 7 {
		t.Fatalf("Total = %d", h.Total)
	}
	if h.Counts[0] != 3 || h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[9] != 1 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	pdf := h.PDF()
	var sum float64
	for _, p := range pdf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("PDF sums to %v", sum)
	}
	if got := h.BinCenter(2); got != 25 {
		t.Fatalf("BinCenter(2) = %v", got)
	}
}

func TestHistogramEmptyAndErrors(t *testing.T) {
	if NewHistogram(5).PDF() != nil {
		t.Fatalf("empty PDF not nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("zero bin width accepted")
			}
		}()
		NewHistogram(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("negative value accepted")
			}
		}()
		NewHistogram(5).Add(-1)
	}()
}
