package stats

import "fmt"

// Counter is a counting histogram over non-negative int64 values with a
// small range (onset windows, buffer counts). It answers order
// statistics — median, rank counts — exactly, matching Median over the
// equivalent slice bit for bit, while storing one counter per distinct
// value instead of one element per observation. That is what lets a
// sweep over millions of trees keep exact aggregates in O(value range)
// memory.
type Counter struct {
	counts []int64
	total  int64
	max    int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{} }

// Add records a non-negative value.
func (c *Counter) Add(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative counter value %d", v))
	}
	for int64(len(c.counts)) <= v {
		c.counts = append(c.counts, 0)
	}
	c.counts[v]++
	c.total++
	if v > c.max {
		c.max = v
	}
}

// Total returns the number of values added.
func (c *Counter) Total() int64 { return c.total }

// CountAtMost returns how many added values are <= x.
func (c *Counter) CountAtMost(x int64) int64 {
	if x < 0 {
		return 0
	}
	if x >= c.max {
		return c.total
	}
	var n int64
	for v := int64(0); v <= x; v++ {
		n += c.counts[v]
	}
	return n
}

// Kth returns the k'th smallest added value, 0-based — the value that
// would sit at index k of the sorted slice of observations.
func (c *Counter) Kth(k int64) int64 {
	if k < 0 || k >= c.total {
		panic(fmt.Sprintf("stats: rank %d out of range 0..%d", k, c.total-1))
	}
	var seen int64
	for v, n := range c.counts {
		seen += n
		if seen > k {
			return int64(v)
		}
	}
	panic("stats: counter books unbalanced")
}

// Median returns the median: the middle value for odd totals, the mean
// of the two middle values (rounded down) for even totals — the same
// result as Median over the equivalent slice. It panics when empty.
func (c *Counter) Median() int64 {
	if c.total == 0 {
		panic("stats: median of empty counter")
	}
	mid := c.total / 2
	if c.total%2 == 1 {
		return c.Kth(mid)
	}
	return (c.Kth(mid-1) + c.Kth(mid)) / 2
}
