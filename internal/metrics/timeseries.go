// Package metrics holds TimeSeries and Sampler, the bounded time-series
// ring behind the engine and live timelines. There are no instruments and
// no registry: the engine and the live node keep their counters as plain
// struct fields (engine.Metrics, live.Stats).
package metrics

import (
	"fmt"
	"sync"
)

// Point is one time-series sample: a value observed at time T. T's unit
// is whatever the producer samples in — sim timesteps for the engine,
// nanoseconds since an epoch for the live runtime. Consumers treat it as
// an opaque monotonic axis.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// TimeSeries is a fixed-capacity series of (t, value) points with
// automatic 2× downsampling: when the buffer fills, adjacent pairs are
// averaged in place (halving the point count and doubling the effective
// resolution), and subsequent points arriving closer together than the
// current resolution are merged into the newest point by running mean.
// Memory therefore stays O(capacity) no matter how many samples a run
// produces, at the cost of coarser (mean-of-means) early history — the
// right trade for telemetry, where recent detail matters most and old
// detail only needs to preserve the curve's shape.
//
// The buffer is allocated once at construction; Append never allocates.
// A TimeSeries is not safe for concurrent use — the engine drives one
// per run from its single-threaded event loop, and the live runtime
// serializes access through a Sampler.
type TimeSeries struct {
	name  string
	pts   []Point
	res   int64 // current minimum spacing between stored points
	lastN int64 // raw samples merged into the newest point
}

// NewTimeSeries returns an empty series that stores at most capacity
// points (capacity >= 2) at an initial resolution of res time units
// between stored points (res >= 1; points arriving closer together than
// the resolution merge into their predecessor).
func NewTimeSeries(name string, capacity int, res int64) *TimeSeries {
	if capacity < 2 {
		panic(fmt.Sprintf("metrics: time series %q capacity %d must be >= 2", name, capacity))
	}
	if res < 1 {
		panic(fmt.Sprintf("metrics: time series %q resolution %d must be >= 1", name, res))
	}
	return &TimeSeries{name: name, pts: make([]Point, 0, capacity), res: res}
}

// Name returns the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Resolution returns the current minimum spacing between stored points.
// It starts at the construction-time resolution and doubles on every
// downsampling pass.
func (ts *TimeSeries) Resolution() int64 { return ts.res }

// Last returns the newest stored point, or ok=false on an empty series.
func (ts *TimeSeries) Last() (Point, bool) {
	if len(ts.pts) == 0 {
		return Point{}, false
	}
	return ts.pts[len(ts.pts)-1], true
}

// Points returns a copy of the stored points, oldest first.
func (ts *TimeSeries) Points() []Point {
	return append([]Point(nil), ts.pts...)
}

// Append records value v observed at time t. Times must be
// non-decreasing; a point closer than the current resolution to the
// newest stored point merges into it (running mean over the merged raw
// samples, timestamp advanced to t). Append never allocates.
func (ts *TimeSeries) Append(t int64, v float64) {
	if n := len(ts.pts); n > 0 {
		last := &ts.pts[n-1]
		if t < last.T {
			panic(fmt.Sprintf("metrics: time series %q time went backwards: %d -> %d", ts.name, last.T, t))
		}
		if t-last.T < ts.res {
			ts.lastN++
			last.V += (v - last.V) / float64(ts.lastN)
			last.T = t
			return
		}
	}
	if len(ts.pts) == cap(ts.pts) {
		ts.downsample()
	}
	ts.pts = append(ts.pts, Point{T: t, V: v})
	ts.lastN = 1
}

// downsample halves the stored history: adjacent pairs are replaced by
// their mean at the later timestamp, an odd trailing point is kept
// verbatim, and the resolution doubles so future points land at the new
// spacing.
func (ts *TimeSeries) downsample() {
	n := len(ts.pts)
	j := 0
	for i := 0; i+1 < n; i += 2 {
		ts.pts[j] = Point{T: ts.pts[i+1].T, V: (ts.pts[i].V + ts.pts[i+1].V) / 2}
		j++
	}
	if n%2 == 1 {
		ts.pts[j] = ts.pts[n-1]
		j++
	}
	ts.pts = ts.pts[:j]
	ts.res *= 2
	ts.lastN = 1
}

// SeriesSnapshot is the renderable view of one TimeSeries, the unit of
// the /timeline JSON document and the bwcs-timeline/v1 artifact.
type SeriesSnapshot struct {
	Name       string  `json:"name"`
	Resolution int64   `json:"resolution"`
	Points     []Point `json:"points"`
}

// SnapshotSeries captures a TimeSeries as a SeriesSnapshot (points
// copied, safe to retain).
func SnapshotSeries(ts *TimeSeries) SeriesSnapshot {
	return SeriesSnapshot{Name: ts.Name(), Resolution: ts.Resolution(), Points: ts.Points()}
}

// Sampler is a mutex-guarded registry of TimeSeries sharing one capacity
// and resolution — the live runtime's wall-clock sampler appends from
// its sampling goroutine while HTTP handlers snapshot concurrently. The
// engine does not use a Sampler: its event loop is single-threaded and
// holds TimeSeries directly.
type Sampler struct {
	mu     sync.Mutex
	cap    int
	res    int64
	order  []*TimeSeries
	byName map[string]*TimeSeries
	ticks  uint64
}

// NewSampler returns an empty sampler whose series store at most
// capacity points at the given initial resolution.
func NewSampler(capacity int, res int64) *Sampler {
	return &Sampler{cap: capacity, res: res, byName: make(map[string]*TimeSeries)}
}

// Observe appends (t, v) to the named series, creating it on first use.
func (s *Sampler) Observe(name string, t int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.byName[name]
	if !ok {
		ts = NewTimeSeries(name, s.cap, s.res)
		s.byName[name] = ts
		s.order = append(s.order, ts)
	}
	ts.Append(t, v)
}

// Tick marks the end of one sampling pass (one Observe per series) and
// returns the new tick count. Followers of a streaming endpoint use the
// count as a cursor: a change means a fresh row of samples exists.
func (s *Sampler) Tick() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks++
	return s.ticks
}

// Snapshot captures every series in first-use order.
func (s *Sampler) Snapshot() []SeriesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(s.order))
	for _, ts := range s.order {
		out = append(out, SnapshotSeries(ts))
	}
	return out
}

// Latest returns the newest point of every series in first-use order,
// with the tick count at capture time — the row a /timeline follower
// streams as one NDJSON line.
func (s *Sampler) Latest() (uint64, []SeriesSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(s.order))
	for _, ts := range s.order {
		p, ok := ts.Last()
		if !ok {
			continue
		}
		out = append(out, SeriesSnapshot{Name: ts.Name(), Resolution: ts.Resolution(), Points: []Point{p}})
	}
	return s.ticks, out
}
