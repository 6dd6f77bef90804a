// Package stats provides the small set of descriptive statistics the
// paper's evaluation uses: medians over tree populations (Table 2),
// probability distribution functions over binned counts (Figure 6), and
// the counting histogram behind the cumulative distribution series
// (Figures 4 and 5).
package stats

import (
	"fmt"
	"slices"
)

// Median returns the median of vs: the middle element for odd lengths, the
// mean of the two middle elements (rounded down) for even lengths. It
// panics on an empty slice.
func Median(vs []int64) int64 {
	if len(vs) == 0 {
		panic("stats: median of empty slice")
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Histogram bins values into fixed-width buckets for PDF plots.
type Histogram struct {
	// BinWidth is the width of each bucket; bucket i covers
	// [i*BinWidth, (i+1)*BinWidth).
	BinWidth int64
	// Counts[i] is the number of values in bucket i.
	Counts []int64
	// Total is the number of values added.
	Total int64
}

// NewHistogram returns an empty histogram with the given bin width.
func NewHistogram(binWidth int64) *Histogram {
	if binWidth <= 0 {
		panic(fmt.Sprintf("stats: bin width %d must be positive", binWidth))
	}
	return &Histogram{BinWidth: binWidth}
}

// Add records a non-negative value.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	bin := int(v / h.BinWidth)
	for len(h.Counts) <= bin {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[bin]++
	h.Total++
}

// PDF returns each bucket's share of the total (0..1); an empty histogram
// returns nil.
func (h *Histogram) PDF() []float64 {
	if h.Total == 0 {
		return nil
	}
	out := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}

// BinCenter returns the midpoint of bucket i, for plotting.
func (h *Histogram) BinCenter(i int) float64 {
	return (float64(i) + 0.5) * float64(h.BinWidth)
}
