// Package trace is the engine's event stream: the Event vocabulary every
// scheduling action is recorded in, a Recorder that keeps a stream and
// renders it as a per-node text Gantt chart, and Replay, the conformance
// check that drives one protocol.Node per platform node through a stream
// and holds every recorded decision to what the core decides. The engine
// emits each action as the core makes it, before its consequences; the
// engine test suite asserts protocol behaviour at the event level, and
// cmd/bwtrace replays live flight-recorder timelines converted into the
// same vocabulary.
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
	// SendInterrupt, the completed count for ComputeDone, the new
	// capacity for Grow, and a live Request's batch count (the engine
	// records one event per request, Value 0).
	Value int64
}

// String renders the event compactly.
func (e Event) String() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("t=%d %s %d->%d (%d)", e.At, e.Kind, e.Node, e.Peer, e.Value)
	}
	return fmt.Sprintf("t=%d %s %d (%d)", e.At, e.Kind, e.Node, e.Value)
}

// Recorder keeps an event stream in order; its Add is an engine
// Config.Tracer. The zero value is ready to use. Recorders are not safe
// for concurrent use; the engine is single-goroutine.
type Recorder struct {
	events []Event
	// Max caps the number of retained events when positive; recording
	// stops (silently) at the cap so a stray infinite run cannot exhaust
	// memory.
	Max int
}

// Add records one event.
func (r *Recorder) Add(e Event) {
	if r.Max > 0 && len(r.events) >= r.Max {
		return
	}
	r.events = append(r.events, e)
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
		maxNode = max(maxNode, e.Node, e.Peer)
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
		for t := max(a, from); t < min(b, to); t += bucket {
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
