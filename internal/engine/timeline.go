package engine

import (
	"fmt"

	"bwcs/internal/metrics"
	"bwcs/internal/sim"
)

// timelineCapacity bounds the points stored per timeline series. With 2×
// downsampling on overflow, a capacity-c series summarizes any run length
// in O(c) memory.
const timelineCapacity = 512

// Timeline is the sampled telemetry of one run: every Config.SampleEvery
// timesteps the engine records the interval task-completion rate, the
// root pool's depth and each internal node's send-port utilization.
// Series are snapshots — copies, safe to retain across Runner reuse.
//
// Series names: "rate" (tasks per timestep), "pool_depth" (tasks
// undispatched at the root), "link_util/<node>" (busy fraction of the
// node's send port, one series per node that had children at run start).
type Timeline struct {
	// SampleEvery is the sampling cadence in sim timesteps.
	SampleEvery sim.Time `json:"sampleEvery"`
	// Series holds every sampled series; point timestamps are sim times.
	Series []metrics.SeriesSnapshot `json:"series"`
}

// Find returns the named series, or nil if the run did not record it.
func (t *Timeline) Find(name string) *metrics.SeriesSnapshot {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// timeline is the engine's run-time sampling state. It exists only when
// Config.SampleEvery > 0; every hook on the event path is guarded by a
// nil check so a run without sampling pays nothing (pinned by
// TestTimelineDisabledZeroAllocs).
type timeline struct {
	every         sim.Time
	ev            *sim.Event // pending evSample, nil between ticks
	intervalStart sim.Time
	lastCompleted int64

	rate *metrics.TimeSeries
	pool *metrics.TimeSeries
	// linkUtil[n] tracks node n's send port; nil for nodes without
	// children at run start (and for nodes attached mid-run, which join
	// after the series were laid out).
	linkUtil  []*metrics.TimeSeries
	busyAccum []sim.Time // send-port busy time this interval, per node
	busyStart []sim.Time // when the in-flight send started (valid while sending)
}

// initTimeline builds the sampling state for the current run and
// schedules the first tick. Called once per run, after the node table is
// built; allocation here is run setup, not the event hot path.
func (e *engine) initTimeline() {
	every := e.cfg.SampleEvery
	res := int64(every)
	tl := &timeline{
		every:     every,
		rate:      metrics.NewTimeSeries("rate", timelineCapacity, res),
		pool:      metrics.NewTimeSeries("pool_depth", timelineCapacity, res),
		linkUtil:  make([]*metrics.TimeSeries, len(e.nodes)),
		busyAccum: make([]sim.Time, len(e.nodes)),
		busyStart: make([]sim.Time, len(e.nodes)),
	}
	for id := range e.nodes {
		if len(e.nodes[id].core.Slots) > 0 {
			tl.linkUtil[id] = metrics.NewTimeSeries(fmt.Sprintf("link_util/%d", id), timelineCapacity, res)
		}
	}
	e.tl = tl
	tl.ev = e.s.Schedule(every, evSample, 0, 0)
}

// tlSendStart stamps the start of a send from node n. Guard: e.tl != nil.
//
// Nodes attached mid-run fall outside the arrays laid out at run start
// and are simply not tracked.
func (e *engine) tlSendStart(n int32) {
	if int(n) < len(e.tl.busyStart) {
		e.tl.busyStart[n] = e.s.Now()
	}
}

// tlSendStop credits node n's send port with the busy time since the
// current send started. Called on every path that ends a send —
// completion, preemption, departure. Guard: e.tl != nil.
func (e *engine) tlSendStop(n int32) {
	if int(n) < len(e.tl.busyStart) {
		e.tl.busyAccum[n] += e.s.Now() - e.tl.busyStart[n]
	}
}

// onSample records one telemetry tick and schedules the next while tasks
// remain.
func (e *engine) onSample() {
	tl := e.tl
	tl.ev = nil
	e.sampleTimeline()
	if e.completed < e.cfg.Tasks {
		tl.ev = e.s.Schedule(tl.every, evSample, 0, 0)
	}
}

// sampleTimeline flushes the current interval into the series. It is
// driven by evSample ticks and once more at final completion (a partial
// interval), so the last samples land exactly at the makespan.
func (e *engine) sampleTimeline() {
	tl := e.tl
	now := e.s.Now()
	delta := now - tl.intervalStart
	if delta <= 0 {
		return // final completion coincided with a tick; nothing new
	}

	tl.rate.Append(int64(now), float64(e.completed-tl.lastCompleted)/float64(delta))
	tl.lastCompleted = e.completed
	tl.pool.Append(int64(now), float64(e.nodes[0].core.Occupied))

	for id, ts := range tl.linkUtil {
		if ts == nil {
			continue
		}
		busy := tl.busyAccum[id]
		tl.busyAccum[id] = 0
		if e.nodes[id].core.Sending() >= 0 {
			// Still mid-send: charge the elapsed part to this interval and
			// restart the stopwatch for the next.
			busy += now - tl.busyStart[id]
			tl.busyStart[id] = now
		}
		ts.Append(int64(now), float64(busy)/float64(delta))
	}
	tl.intervalStart = now
}

// finishTimeline runs at final task completion: the pending sample event
// is cancelled so it cannot advance the clock past the last completion
// (Makespan is e.s.Now() when the queue drains), and the partial final
// interval is flushed.
func (e *engine) finishTimeline() {
	tl := e.tl
	if tl.ev != nil {
		e.s.Cancel(tl.ev)
		tl.ev = nil
	}
	e.sampleTimeline()
}

// timelineResult copies the run's series into an immortal Timeline.
func (e *engine) timelineResult() *Timeline {
	tl := e.tl
	out := &Timeline{SampleEvery: tl.every}
	out.Series = append(out.Series, metrics.SnapshotSeries(tl.rate), metrics.SnapshotSeries(tl.pool))
	for _, ts := range tl.linkUtil {
		if ts != nil {
			out.Series = append(out.Series, metrics.SnapshotSeries(ts))
		}
	}
	return out
}
