package experiments

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bwcs/internal/protocol"
	"bwcs/internal/stats"
)

// TestAggMatchesOutcomes: every aggregate PopulationAgg answers equals
// the value recomputed from the per-tree Outcomes rows by the plain
// slice-scanning loops the aggregate replaced — reached fractions, CDF
// points, medians, Table 1 buckets and maxima, for every Figure 4
// protocol.
func TestAggMatchesOutcomes(t *testing.T) {
	o := tinyOptions()
	pops, err := RunPopulation(o, Fig4Protocols())
	if err != nil {
		t.Fatal(err)
	}
	xs := gridInt64(int(o.Tasks)/2, 60)
	for i := range pops {
		p, rows, agg := pops[i].Protocol, pops[i].Outcomes, pops[i].Agg
		if len(rows) != o.Trees || agg == nil || agg.Trees != o.Trees {
			t.Fatalf("%v: %d rows, aggregate %+v, want %d trees in both", p, len(rows), agg, o.Trees)
		}
		frac := func(keep func(TreeOutcome) bool) float64 {
			n := 0
			for _, oc := range rows {
				if keep(oc) {
					n++
				}
			}
			return float64(n) / float64(len(rows))
		}
		var onsets []int64
		var wantMaxBuf, wantMaxUsed, wantTotBuf int64
		for _, oc := range rows {
			if oc.Reached {
				onsets = append(onsets, int64(oc.Onset))
			}
			wantMaxBuf = max(wantMaxBuf, oc.MaxNodeBuffers)
			wantMaxUsed = max(wantMaxUsed, oc.MaxNodeUsed)
			wantTotBuf = max(wantTotBuf, oc.TotalBuffers)
		}
		if got, want := agg.ReachedFraction(), frac(func(oc TreeOutcome) bool { return oc.Reached }); got != want {
			t.Fatalf("%v: reached fraction %v, rows say %v", p, got, want)
		}
		var wantMedian int64
		if len(onsets) > 0 {
			wantMedian = stats.Median(onsets)
		}
		if got := agg.MedianOnset(); got != wantMedian {
			t.Fatalf("%v: median onset %d, rows say %d", p, got, wantMedian)
		}
		wantCDF := make([]float64, len(xs))
		for j, x := range xs {
			wantCDF[j] = frac(func(oc TreeOutcome) bool { return oc.Reached && int64(oc.Onset) <= x })
		}
		if got := agg.OnsetCDF(xs); !slices.Equal(got, wantCDF) {
			t.Fatalf("%v: onset CDF differs\nagg:  %v\nrows: %v", p, got, wantCDF)
		}
		for _, n := range Table1Buckets {
			want := frac(func(oc TreeOutcome) bool { return oc.Reached && oc.MaxNodeUsed <= n })
			if got := agg.ReachedWithAtMostBuffers(n); got != want {
				t.Fatalf("%v: reached@<=%d = %v, rows say %v", p, n, got, want)
			}
		}
		if agg.MaxNodeBuffersMax != wantMaxBuf || agg.MaxNodeUsedMax != wantMaxUsed || agg.TotalBuffersMax != wantTotBuf {
			t.Fatalf("%v: maxima (%d, %d, %d), rows say (%d, %d, %d)", p,
				agg.MaxNodeBuffersMax, agg.MaxNodeUsedMax, agg.TotalBuffersMax,
				wantMaxBuf, wantMaxUsed, wantTotBuf)
		}
	}
}

// TestSweepMeasureSeesEveryRunOnce: a sweep's measure sees every (column,
// tree) run exactly once, with regenerable indices, while the worker's
// Evaluator still holds that run's tree and result.
func TestSweepMeasureSeesEveryRunOnce(t *testing.T) {
	o := tinyOptions()
	var mu sync.Mutex
	seen := map[[2]int]int{}
	s := sweep{
		protos: []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptible(1)},
		measure: func(col int, oc TreeOutcome, ev *Evaluator) error {
			if ev.index != oc.Index || ev.res.Tree.Len() != oc.Nodes {
				return fmt.Errorf("measure of tree %d sees tree %d's state", oc.Index, ev.index)
			}
			mu.Lock()
			seen[[2]int{col, oc.Index}]++
			mu.Unlock()
			return nil
		},
	}
	if _, err := s.run(o); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2*o.Trees {
		t.Fatalf("measure saw %d distinct runs, want %d", len(seen), 2*o.Trees)
	}
	for run, n := range seen {
		if n != 1 {
			t.Fatalf("measure saw column %d tree %d %d times", run[0], run[1], n)
		}
		if idx := run[1]; idx < 0 || idx >= o.Trees {
			t.Fatalf("measure saw out-of-range tree index %d", idx)
		}
	}
}

// TestGridInt64 pins the checkpoint-grid fix: integer division used to
// emit zeros and duplicate points whenever points > max.
func TestGridInt64(t *testing.T) {
	cases := []struct {
		max, points int
		want        []int64
	}{
		{10, 5, []int64{2, 4, 6, 8, 10}},
		{60, 2, []int64{30, 60}},
		{3, 6, []int64{1, 2, 3}}, // points > max: dupes collapse
		{5, 10, []int64{1, 2, 3, 4, 5}},
		{1, 4, []int64{1}},
		{2, 7, []int64{1, 2}},
		{0, 3, nil},
		{7, 1, []int64{3, 7}}, // points clamps up to 2
	}
	for _, tc := range cases {
		got := gridInt64(tc.max, tc.points)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("gridInt64(%d, %d) = %v, want %v", tc.max, tc.points, got, tc.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("gridInt64(%d, %d) = %v not strictly increasing", tc.max, tc.points, got)
			}
		}
		if len(got) > 0 && got[len(got)-1] != int64(tc.max) {
			t.Fatalf("gridInt64(%d, %d) = %v does not end at max", tc.max, tc.points, got)
		}
	}
}
