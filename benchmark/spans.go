package main

import (
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a simulation, a task) share Op; Parent is the ID of the span that
// caused this one, 0 for none. Start and End are nanoseconds on the
// clock named by Node: "" is the benchmark's own clock, anything else a
// live node's recorder clock (spans never pair events of two nodes).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on the benchmark's clock and returns its ID.
func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// add records a span whose interval was read off a node's event log.
func (t *tracer) add(name, node string, parent int32, op uint64, start, end int64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Node: node, Op: op,
		Start: start, End: end})
	return id
}

// selfTimes sums, by span name, each span's duration minus the part its
// child spans cover (children of one parent do not overlap here).
func (t *tracer) selfTimes() (self map[string]int64, count map[string]int64) {
	self, count = map[string]int64{}, map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		count[s.Name]++
		if s.Parent != 0 {
			self[t.spans[s.Parent-1].Name] -= s.End - s.Start
		}
	}
	return self, count
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}, true)
}
