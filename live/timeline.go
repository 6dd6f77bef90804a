package live

// Wall-clock timeline telemetry for a running overlay node: a background
// sampler snapshots the node's counters once per interval and folds the
// deltas into bounded time series (task and wire byte rates, buffered
// depth), which /timeline serves as a JSON dump or follows as NDJSON.

import (
	"net/http"
	"time"

	"bwcs/internal/metrics"
)

// TimelineSchema identifies the /timeline JSON document format.
const TimelineSchema = "bwcs-timeline/v1"

// TimelineDump is the JSON document /timeline serves: every sampled
// series of the node, point timestamps in milliseconds since the node
// started.
type TimelineDump struct {
	Schema     string                   `json:"schema"`
	Node       string                   `json:"node"`
	IntervalMS int64                    `json:"intervalMs"`
	Series     []metrics.SeriesSnapshot `json:"series"`
}

// TimelineDump snapshots the node's sampled telemetry. The Series are
// empty when sampling is disabled (WithTimelineInterval < 0).
func (n *Node) TimelineDump() TimelineDump {
	d := TimelineDump{
		Schema:     TimelineSchema,
		Node:       n.cfg.name,
		IntervalMS: n.cfg.timelineInterval.Milliseconds(),
	}
	if n.sampler != nil {
		d.Series = n.sampler.Snapshot()
	}
	return d
}

// sampleLoop is the telemetry goroutine: once per timelineInterval it
// diffs the node's counters against the previous pass and records the
// rates, stamped in milliseconds since the node started. Rates are
// computed against the measured (not nominal) elapsed time, so a late
// tick does not inflate them.
func (n *Node) sampleLoop() {
	t := time.NewTicker(n.cfg.timelineInterval)
	defer t.Stop()
	prev := n.Stats()
	prevAt := time.Now()
	for {
		select {
		case <-t.C:
		case <-n.done:
			return
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		if dt <= 0 {
			continue
		}
		v := n.snapshot()
		st := v.Stats

		tms := now.Sub(n.started).Milliseconds()
		rate := func(cur, old int64) float64 { return float64(cur-old) / dt }
		n.sampler.Observe("computed_rate", tms, rate(st.Computed, prev.Computed))
		n.sampler.Observe("forwarded_rate", tms, rate(st.Forwarded, prev.Forwarded))
		n.sampler.Observe("received_rate", tms, rate(st.Received, prev.Received))
		n.sampler.Observe("bytes_sent_rate", tms, rate(st.BytesSent, prev.BytesSent))
		n.sampler.Observe("bytes_received_rate", tms, rate(st.BytesReceived, prev.BytesReceived))
		n.sampler.Observe("buffered", tms, float64(v.Buffered))
		n.sampler.Tick()
		prev, prevAt = st, now
	}
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

// handleTimeline serves the sampled telemetry. A plain GET returns the
// full TimelineDump as JSON; with ?follow=1 the response is an NDJSON
// stream — one timelineRow per series per sampling pass, flushed per
// line — until the client disconnects or the node closes.
func (n *Node) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if n.sampler == nil {
		http.Error(w, "live: timeline sampling disabled", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("follow") == "" {
		writeJSON(w, n.TimelineDump())
		return
	}
	// The tick cursor makes polls without a fresh sampling pass free.
	var cursor uint64
	n.follow(w, r, func(line func(any) error) error {
		tick, latest := n.sampler.Latest()
		if tick <= cursor {
			return nil
		}
		cursor = tick
		for _, sn := range latest {
			if err := line(timelineRow{Tick: tick, Series: sn.Name, T: sn.Points[0].T, V: sn.Points[0].V}); err != nil {
				return err
			}
		}
		return nil
	})
}
