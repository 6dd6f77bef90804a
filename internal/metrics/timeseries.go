// Package metrics holds Sampler, the bounded time-series rings behind a
// live node's /timeline. There are no instruments and no registry: the
// engine and the live node keep their counters as plain struct fields
// (engine.Metrics, live.Stats).
package metrics

import (
	"fmt"
	"sync"
)

// Point is one time-series sample: a value observed at time T. T's unit
// is the producer's — milliseconds since the node started for the live
// sampler, sim timesteps for reconverge's rate series. Consumers treat it
// as an opaque monotonic axis.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// timeSeries is a fixed-capacity series of (t, value) points with
// automatic 2× downsampling: when the buffer fills, adjacent pairs are
// averaged in place (halving the point count and doubling the effective
// resolution), and subsequent points arriving closer together than the
// current resolution are merged into the newest point by running mean.
// Memory therefore stays O(capacity) no matter how many samples a run
// produces, at the cost of coarser (mean-of-means) early history — the
// right trade for telemetry, where recent detail matters most and old
// detail only needs to preserve the curve's shape.
//
// The buffer is allocated once at construction; add never allocates.
// A timeSeries is not safe for concurrent use; its Sampler serializes
// access.
type timeSeries struct {
	name  string
	pts   []Point
	res   int64 // current minimum spacing between stored points
	lastN int64 // raw samples merged into the newest point
}

// newTimeSeries returns an empty series that stores at most capacity
// points (capacity >= 2) at an initial resolution of res time units
// between stored points (res >= 1; points arriving closer together than
// the resolution merge into their predecessor).
func newTimeSeries(name string, capacity int, res int64) *timeSeries {
	if capacity < 2 {
		panic(fmt.Sprintf("metrics: time series %q capacity %d must be >= 2", name, capacity))
	}
	if res < 1 {
		panic(fmt.Sprintf("metrics: time series %q resolution %d must be >= 1", name, res))
	}
	return &timeSeries{name: name, pts: make([]Point, 0, capacity), res: res}
}

// add records value v observed at time t. Times must be
// non-decreasing; a point closer than the current resolution to the
// newest stored point merges into it (running mean over the merged raw
// samples, timestamp advanced to t). add never allocates.
func (ts *timeSeries) add(t int64, v float64) {
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
func (ts *timeSeries) downsample() {
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

// SeriesSnapshot is the renderable view of one series, the unit of
// the /timeline JSON document and the bwcs-timeline/v1 artifact.
type SeriesSnapshot struct {
	Name       string  `json:"name"`
	Resolution int64   `json:"resolution"`
	Points     []Point `json:"points"`
}

// snapshot captures the series as a SeriesSnapshot, its points copied,
// oldest first; the resolution is the current one, which doubles on
// every downsampling pass.
func (ts *timeSeries) snapshot() SeriesSnapshot {
	return SeriesSnapshot{Name: ts.name, Resolution: ts.res, Points: append([]Point(nil), ts.pts...)}
}

// Sampler is a mutex-guarded registry of series — a live node's
// wall-clock sampler appends from its sampling goroutine while HTTP
// handlers snapshot concurrently.
type Sampler struct {
	mu     sync.Mutex
	order  []*timeSeries
	byName map[string]*timeSeries
	ticks  uint64
}

// A Sampler series stores at most samplerCapacity points, halving itself
// on overflow, so a long-lived node's telemetry stays O(samplerCapacity).
// Millisecond timestamps at a sampling cadence never collide, so
// resolution 1 keeps every pass distinct until capacity forces a halving.
const (
	samplerCapacity   = 512
	samplerResolution = 1
)

// NewSampler returns an empty sampler.
func NewSampler() *Sampler {
	return &Sampler{byName: make(map[string]*timeSeries)}
}

// Observe appends (t, v) to the named series, creating it on first use.
func (s *Sampler) Observe(name string, t int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.byName[name]
	if !ok {
		ts = newTimeSeries(name, samplerCapacity, samplerResolution)
		s.byName[name] = ts
		s.order = append(s.order, ts)
	}
	ts.add(t, v)
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
		out = append(out, ts.snapshot())
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
	for _, ts := range s.order { // Observe never leaves a series empty
		out = append(out, SeriesSnapshot{Name: ts.name, Resolution: ts.res, Points: []Point{ts.pts[len(ts.pts)-1]}})
	}
	return s.ticks, out
}
