package metrics

import (
	"testing"
)

func TestTimeSeriesAppendAndSnapshot(t *testing.T) {
	ts := newTimeSeries("rate", 8, 10)
	for i := int64(0); i < 5; i++ {
		ts.add(i*10, float64(i))
	}
	if len(ts.pts) != 5 {
		t.Fatalf("Len = %d, want 5", len(ts.pts))
	}
	if ts.res != 10 {
		t.Fatalf("Resolution = %d, want 10", ts.res)
	}
	snap := ts.snapshot()
	if snap.Name != "rate" || snap.Resolution != 10 || len(snap.Points) != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i, p := range snap.Points {
		if p.T != int64(i)*10 || p.V != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	// The snapshot owns its points: mutating it must not touch the series.
	snap.Points[0].V = 99
	if got := ts.pts[0].V; got != 0 {
		t.Fatalf("snapshot aliases the series buffer: pts[0].V = %v", got)
	}
}

func TestTimeSeriesSubResolutionMerge(t *testing.T) {
	ts := newTimeSeries("x", 8, 10)
	ts.add(0, 2)
	// Three more samples inside the same 10-step bucket: running mean,
	// timestamp advances to the newest.
	ts.add(3, 4)
	ts.add(6, 6)
	ts.add(9, 8)
	if len(ts.pts) != 1 {
		t.Fatalf("Len = %d, want 1 (merged)", len(ts.pts))
	}
	p := ts.pts[len(ts.pts)-1]
	if p.T != 9 || p.V != 5 {
		t.Fatalf("merged point = %+v, want {9 5}", p)
	}
	// A point a full resolution past the (advanced) merged timestamp
	// starts a fresh point with a fresh mean.
	ts.add(19, 100)
	ts.add(20, 200)
	p = ts.pts[len(ts.pts)-1]
	if len(ts.pts) != 2 || p.T != 20 || p.V != 150 {
		t.Fatalf("after new bucket: len=%d last=%+v", len(ts.pts), p)
	}
}

func TestTimeSeriesDownsampleOnOverflow(t *testing.T) {
	ts := newTimeSeries("x", 4, 1)
	for i := int64(0); i < 4; i++ {
		ts.add(i, float64(i))
	}
	if len(ts.pts) != 4 || ts.res != 1 {
		t.Fatalf("before overflow: len=%d res=%d", len(ts.pts), ts.res)
	}
	// The 5th point overflows: pairs (0,1) and (2,3) average to 2 points
	// at the later timestamps, resolution doubles, then the new point
	// lands.
	ts.add(4, 4)
	if len(ts.pts) != 3 {
		t.Fatalf("after overflow: len = %d, want 3", len(ts.pts))
	}
	if ts.res != 2 {
		t.Fatalf("after overflow: res = %d, want 2", ts.res)
	}
	want := []Point{{T: 1, V: 0.5}, {T: 3, V: 2.5}, {T: 4, V: 4}}
	for i, w := range want {
		if got := ts.pts[i]; got != w {
			t.Fatalf("point %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestTimeSeriesDownsampleOddCount(t *testing.T) {
	// An odd point count keeps the trailing point verbatim.
	ts := newTimeSeries("x", 5, 1)
	for i := int64(0); i < 5; i++ {
		ts.add(i, float64(i*10))
	}
	ts.add(5, 50)
	// Pairs (0,10)@1, (20,30)@3, odd 40@4 kept, then 50@5 appended.
	want := []Point{{T: 1, V: 5}, {T: 3, V: 25}, {T: 4, V: 40}, {T: 5, V: 50}}
	if len(ts.pts) != len(want) {
		t.Fatalf("len = %d, want %d", len(ts.pts), len(want))
	}
	for i, w := range want {
		if got := ts.pts[i]; got != w {
			t.Fatalf("point %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestTimeSeriesBoundedOverLongRun(t *testing.T) {
	// A million appends at unit spacing must stay within capacity, with
	// monotone timestamps and ever-coarser resolution.
	ts := newTimeSeries("x", 64, 1)
	for i := int64(0); i < 1_000_000; i++ {
		ts.add(i, 1.0)
	}
	if len(ts.pts) > 64 {
		t.Fatalf("series exceeded capacity: %d", len(ts.pts))
	}
	for i := 1; i < len(ts.pts); i++ {
		if ts.pts[i].T <= ts.pts[i-1].T {
			t.Fatalf("timestamps not strictly ascending at %d: %v then %v", i, ts.pts[i-1], ts.pts[i])
		}
	}
	if ts.res <= 1 {
		t.Fatalf("resolution never coarsened: %d", ts.res)
	}
	// Constant input must survive mean-of-means exactly.
	for i := 0; i < len(ts.pts); i++ {
		if ts.pts[i].V != 1.0 {
			t.Fatalf("constant series distorted at %d: %v", i, ts.pts[i])
		}
	}
}

func TestTimeSeriesBackwardsTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("backwards time did not panic")
		}
	}()
	ts := newTimeSeries("x", 4, 1)
	ts.add(10, 1)
	ts.add(9, 1)
}

func TestNewTimeSeriesValidates(t *testing.T) {
	for _, tc := range []struct {
		cap1 int
		res  int64
	}{{1, 1}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newTimeSeries(cap=%d res=%d) did not panic", tc.cap1, tc.res)
				}
			}()
			newTimeSeries("x", tc.cap1, tc.res)
		}()
	}
}

// TestTimeSeriesAppendZeroAllocs pins timeSeries.add and downsample
// to zero allocations: a live node's sampler appends on every tick for
// the node's lifetime, so it must not allocate even across downsampling
// passes.
func TestTimeSeriesAppendZeroAllocs(t *testing.T) {
	ts := newTimeSeries("x", 64, 1)
	var i int64
	allocs := testing.AllocsPerRun(10_000, func() {
		ts.add(i, float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("add allocates %.1f times per call on the warm path", allocs)
	}
}

func TestSamplerObserveSnapshotLatest(t *testing.T) {
	s := NewSampler()
	s.Observe("a", 1, 10)
	s.Observe("b", 1, 20)
	if n := s.Tick(); n != 1 {
		t.Fatalf("Tick = %d, want 1", n)
	}
	s.Observe("a", 2, 11)
	s.Observe("b", 2, 21)
	if n := s.Tick(); n != 2 {
		t.Fatalf("Tick = %d, want 2", n)
	}

	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot order/content: %+v", snap)
	}
	if len(snap[0].Points) != 2 || snap[0].Points[1] != (Point{T: 2, V: 11}) {
		t.Fatalf("series a: %+v", snap[0])
	}

	tick, latest := s.Latest()
	if tick != 2 || len(latest) != 2 {
		t.Fatalf("Latest = (%d, %d series)", tick, len(latest))
	}
	if latest[1].Points[0] != (Point{T: 2, V: 21}) {
		t.Fatalf("latest b = %+v", latest[1])
	}
}
