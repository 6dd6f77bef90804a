// Package trace records and renders engine execution traces.
//
// A Recorder implements engine.Tracer and captures every scheduling action
// — compute start/finish, send start/interrupt/resume/finish, requests,
// buffer growth — as a flat, time-ordered event list. The list can be
// filtered, asserted against in tests (the engine test suite validates
// protocol behaviour at the event level), and rendered as a per-node text
// timeline for debugging schedules by eye.
package trace

import (
	"fmt"
	"io"
	"strings"

	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

// Kind discriminates trace events.
type Kind int

const (
	ComputeStart Kind = iota
	ComputeDone
	SendStart
	SendResume
	SendInterrupt
	SendDone
	Request
	Grow
	// Requeue is a task reclaimed from a failed subtree back into the
	// acting node's pool (the live runtime's recovery path; the
	// deterministic engine never emits it). Node is the reclaiming parent,
	// Peer the subtree the task was reclaimed from.
	Requeue
)

var kindNames = [...]string{
	ComputeStart:  "compute-start",
	ComputeDone:   "compute-done",
	SendStart:     "send-start",
	SendResume:    "send-resume",
	SendInterrupt: "send-interrupt",
	SendDone:      "send-done",
	Request:       "request",
	Grow:          "grow",
	Requeue:       "requeue",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded action.
type Event struct {
	At   sim.Time
	Kind Kind
	// Node is the acting node (the sender for transfer events).
	Node tree.NodeID
	// Peer is the counterpart for transfer events (the child), or -1.
	Peer tree.NodeID
	// Value carries kind-specific data: the scheduled finish time for
	// ComputeStart/SendStart/SendResume, the remaining time for
	// SendInterrupt, the completed count for ComputeDone, and the new
	// capacity for Grow.
	Value int64
}

// String renders the event compactly.
func (e Event) String() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("t=%d %s %d->%d (%d)", e.At, e.Kind, e.Node, e.Peer, e.Value)
	}
	return fmt.Sprintf("t=%d %s %d (%d)", e.At, e.Kind, e.Node, e.Value)
}

// Recorder captures engine actions. It implements engine.Tracer. The zero
// value is ready to use. Recorders are not safe for concurrent use; the
// engine is single-goroutine.
type Recorder struct {
	events []Event
	// Max caps the number of retained events when positive; recording
	// stops (silently) at the cap so a stray infinite run cannot exhaust
	// memory.
	Max int
}

func (r *Recorder) add(e Event) {
	if r.Max > 0 && len(r.events) >= r.Max {
		return
	}
	r.events = append(r.events, e)
}

// ComputeStart implements engine.Tracer.
func (r *Recorder) ComputeStart(now sim.Time, node tree.NodeID, until sim.Time) {
	r.add(Event{At: now, Kind: ComputeStart, Node: node, Peer: -1, Value: int64(until)})
}

// ComputeDone implements engine.Tracer.
func (r *Recorder) ComputeDone(now sim.Time, node tree.NodeID, completed int64) {
	r.add(Event{At: now, Kind: ComputeDone, Node: node, Peer: -1, Value: completed})
}

// SendStart implements engine.Tracer.
func (r *Recorder) SendStart(now sim.Time, parent, child tree.NodeID, until sim.Time, fromShelf bool) {
	k := SendStart
	if fromShelf {
		k = SendResume
	}
	r.add(Event{At: now, Kind: k, Node: parent, Peer: child, Value: int64(until)})
}

// SendInterrupted implements engine.Tracer.
func (r *Recorder) SendInterrupted(now sim.Time, parent, child tree.NodeID, remaining sim.Time) {
	r.add(Event{At: now, Kind: SendInterrupt, Node: parent, Peer: child, Value: int64(remaining)})
}

// SendDone implements engine.Tracer.
func (r *Recorder) SendDone(now sim.Time, parent, child tree.NodeID) {
	r.add(Event{At: now, Kind: SendDone, Node: parent, Peer: child})
}

// Requested implements engine.Tracer.
func (r *Recorder) Requested(now sim.Time, child tree.NodeID) {
	r.add(Event{At: now, Kind: Request, Node: child, Peer: -1})
}

// Grew implements engine.Tracer.
func (r *Recorder) Grew(now sim.Time, node tree.NodeID, capacity int64) {
	r.add(Event{At: now, Kind: Grow, Node: node, Peer: -1, Value: capacity})
}

// Events returns the recorded events in order. The slice is owned by the
// recorder.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Filter returns the events matching every given predicate.
func (r *Recorder) Filter(preds ...func(Event) bool) []Event {
	var out []Event
	for _, e := range r.events {
		keep := true
		for _, p := range preds {
			if !p(e) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, e)
		}
	}
	return out
}

// OfKind returns a predicate matching one event kind.
func OfKind(k Kind) func(Event) bool {
	return func(e Event) bool { return e.Kind == k }
}

// Counts returns how many events of each kind were recorded.
func (r *Recorder) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}

// Timeline renders a per-node text Gantt chart of the interval [from, to],
// one character per bucket of the given width in timesteps:
//
//	'#'  computing
//	'>'  sending
//	'.'  idle
//
// Nodes appear in ID order up to maxNodes rows. Interrupted transfers show
// as gaps in the sender's '>' run.
func (r *Recorder) Timeline(w io.Writer, from, to sim.Time, bucket sim.Time, maxNodes int) error {
	if bucket <= 0 {
		return fmt.Errorf("trace: bucket %d must be positive", bucket)
	}
	if to <= from {
		return fmt.Errorf("trace: empty interval [%d, %d]", from, to)
	}
	cols := int((to - from + bucket - 1) / bucket)
	if cols > 4096 {
		return fmt.Errorf("trace: %d columns; enlarge the bucket", cols)
	}

	// Determine the node set.
	maxNode := tree.NodeID(-1)
	for _, e := range r.events {
		if e.Node > maxNode {
			maxNode = e.Node
		}
		if e.Peer > maxNode {
			maxNode = e.Peer
		}
	}
	n := int(maxNode) + 1
	if maxNodes > 0 && n > maxNodes {
		n = maxNodes
	}
	if n == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}

	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	mark := func(node tree.NodeID, a, b sim.Time, ch byte) {
		if int(node) >= n {
			return
		}
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		for t := a; t < b; t += bucket {
			col := int((t - from) / bucket)
			if col >= 0 && col < cols {
				rows[node][col] = ch
			}
		}
	}

	// Open intervals per node for compute and send.
	computeSince := make(map[tree.NodeID]sim.Time)
	sendSince := make(map[tree.NodeID]sim.Time)
	for _, e := range r.events {
		switch e.Kind {
		case ComputeStart:
			computeSince[e.Node] = e.At
		case ComputeDone:
			if s, ok := computeSince[e.Node]; ok {
				mark(e.Node, s, e.At, '#')
				delete(computeSince, e.Node)
			}
		case SendStart, SendResume:
			sendSince[e.Node] = e.At
		case SendInterrupt, SendDone:
			if s, ok := sendSince[e.Node]; ok {
				mark(e.Node, s, e.At, '>')
				delete(sendSince, e.Node)
			}
		}
	}
	// Intervals still open at the horizon.
	for node, s := range computeSince {
		mark(node, s, to, '#')
	}
	for node, s := range sendSince {
		mark(node, s, to, '>')
	}

	fmt.Fprintf(w, "timeline %d..%d, %d timesteps per column ('#' compute, '>' send, '.' idle)\n", from, to, bucket)
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%4d |%s|\n", i, rows[i]); err != nil {
			return err
		}
	}
	return nil
}
