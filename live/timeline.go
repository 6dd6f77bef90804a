package live

// Wall-clock timeline telemetry for a running overlay node: on each
// sampling tick the owner folds the node's counters into one bounded ring
// of rows (task and wire byte rates, buffered depth), which /timeline
// serves as a JSON dump or follows as NDJSON.

import (
	"fmt"
	"time"
)

// TimelineSchema identifies the /timeline JSON document format.
const TimelineSchema = "bwcs-timeline/v1"

// TimelineDump is the JSON document /timeline serves: every sampled
// series of the node, point timestamps in milliseconds since the node
// started.
type TimelineDump struct {
	Schema     string           `json:"schema"`
	Node       string           `json:"node"`
	IntervalMS int64            `json:"intervalMs"`
	Series     []TimelineSeries `json:"series"`
}

// TimelineSeries is one sampled series, its points oldest first at the
// resolution the ring has coarsened to, in milliseconds.
type TimelineSeries struct {
	Name       string          `json:"name"`
	Resolution int64           `json:"resolution"`
	Points     []TimelinePoint `json:"points"`
}

// TimelinePoint is one value of a series, V at T.
type TimelinePoint struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// timelineSeries names the columns of a sampleRow, in the order a dump
// lists them: five rates per second, then the buffered depth.
var timelineSeries = [...]string{"computed_rate", "forwarded_rate", "received_rate",
	"bytes_sent_rate", "bytes_received_rate", "buffered"}

// timelineCapacity is the rows a ring holds before it halves itself; its
// first resolution is 1 ms, so sampling passes stay distinct until then.
const timelineCapacity = 512

// sampleRow is one sampling pass: each series' value at T.
type sampleRow struct {
	T int64
	V [len(timelineSeries)]float64
}

// sampleRing is a node's timeline, owner state like Stats. A pass closer
// than the resolution to the newest row merges into it (a running mean,
// the row taking the pass's time); a pass that finds the ring full first
// halves it (adjacent rows average into one at the later time, an odd
// last row kept as it is) and doubles the resolution. So the ring holds a
// run of any length in O(capacity), the newest rows at the finest
// resolution kept, and a pass never allocates.
type sampleRing struct {
	rows   []sampleRow
	res    int64         // the least spacing between rows, in ms
	merged int64         // passes merged into the newest row
	passes uint64        // passes so far: a /timeline follower's cursor
	prev   [5]int64      // the counters the last pass read, for the rates
	prevAt time.Duration // when it ran, since the node started
}

func newSampleRing(capacity int) *sampleRing {
	return &sampleRing{rows: make([]sampleRow, 0, capacity), res: 1}
}

// sample is one sampling pass at now: the rates since the previous pass,
// over the measured (not nominal) time between them so a late tick does
// not inflate them, and the buffered depth. bytes are the wire's bytes
// sent and received so far, which the shell reads.
func (n *Node) sample(now time.Time, bytes [2]int64) {
	r, at := n.samples, now.Sub(n.started)
	dt := (at - r.prevAt).Seconds()
	if dt <= 0 {
		return
	}
	counts := [5]int64{n.stats.Computed, n.stats.Forwarded, n.stats.Received, bytes[0], bytes[1]}
	var v [len(timelineSeries)]float64
	for i, c := range counts {
		v[i] = float64(c-r.prev[i]) / dt
	}
	v[len(counts)] = float64(n.buffer.len())
	r.add(at.Milliseconds(), v)
	r.prev, r.prevAt = counts, at
}

// add appends the pass v taken at t, which may not precede the newest row.
func (r *sampleRing) add(t int64, v [len(timelineSeries)]float64) {
	r.passes++
	if k := len(r.rows); k > 0 {
		last := &r.rows[k-1]
		if t < last.T {
			panic(fmt.Sprintf("live: timeline time went backwards: %d -> %d", last.T, t))
		}
		if t-last.T < r.res {
			r.merged++
			for i := range v {
				last.V[i] += (v[i] - last.V[i]) / float64(r.merged)
			}
			last.T = t
			return
		}
	}
	if k := len(r.rows); k == cap(r.rows) {
		for i := 0; i < k; i += 2 {
			row := r.rows[min(i+1, k-1)] // an odd last row pairs with itself, exactly
			for c := range row.V {
				row.V[c] = (r.rows[i].V[c] + row.V[c]) / 2
			}
			r.rows[i/2] = row
		}
		r.rows = r.rows[:(k+1)/2]
		r.res *= 2
	}
	r.rows = append(r.rows, sampleRow{T: t, V: v})
	r.merged = 1
}

// series renders the ring as a dump's series, their points copied; none
// before the first pass.
func (r *sampleRing) series() []TimelineSeries {
	out := make([]TimelineSeries, 0, len(timelineSeries))
	if len(r.rows) == 0 {
		return out
	}
	for c, name := range timelineSeries {
		pts := make([]TimelinePoint, len(r.rows))
		for i, row := range r.rows {
			pts[i] = TimelinePoint{T: row.T, V: row.V[c]}
		}
		out = append(out, TimelineSeries{Name: name, Resolution: r.res, Points: pts})
	}
	return out
}

// latest renders the newest row as a follower's lines, one per series,
// if a pass came after pass number after, and returns the pass number the
// next call should resume from.
func (r *sampleRing) latest(after uint64) ([]timelineRow, uint64) {
	if r.passes <= after {
		return nil, after
	}
	last := &r.rows[len(r.rows)-1]
	out := make([]timelineRow, len(timelineSeries))
	for c, name := range timelineSeries {
		out[c] = timelineRow{Tick: r.passes, Series: name, T: last.T, V: last.V[c]}
	}
	return out, r.passes
}

// TimelineDump copies the node's sampled telemetry while the owner is
// paused. Series is nil, null in JSON, when sampling is disabled
// (WithTimelineInterval < 0), and empty before the first sampling pass.
func (n *Node) TimelineDump() TimelineDump {
	d := TimelineDump{
		Schema:     TimelineSchema,
		Node:       n.cfg.name,
		IntervalMS: n.cfg.timelineInterval.Milliseconds(),
	}
	if n.samples != nil {
		resume, _ := n.pause()
		d.Series = n.samples.series()
		resume()
	}
	return d
}

// timelineRow is one NDJSON line of a /timeline?follow=1 stream: the
// newest point of one series, tagged with the sampling pass that
// produced it.
type timelineRow struct {
	Tick   uint64  `json:"tick"`
	Series string  `json:"series"`
	T      int64   `json:"t"` // milliseconds since the node started
	V      float64 `json:"v"`
}
