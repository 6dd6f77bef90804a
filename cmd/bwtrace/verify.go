package main

// Conformance verification of a merged live timeline: convert the
// flight-recorder vocabulary into internal/trace events and replay them
// through the protocol core, as the engine's streams are. The live overlay
// schedules on measured link estimates, so the replay applies the stream
// rather than holding it to the tree's weights (apply mode), and a faulty
// run legitimately ends with tasks in flight, so the drain check stays
// off. What the replay does verify is the protocol's structural rules —
// every fresh dispatch served a registered request of a child with no
// transfer already on the way, from a task the sender actually held, and
// every computation started on a held task on an idle compute port —
// through every sever, requeue, and replay in the timeline.

import (
	"fmt"
	"sort"

	"bwcs/internal/sim"
	"bwcs/internal/trace"
	"bwcs/internal/tree"
	"bwcs/live"
)

// topology reconstructs the overlay tree from a merged timeline: an edge
// parent→child exists where the parent's recorder served the child's
// hello or dispatched to it. Returns the tree and the name→ID mapping.
func topology(merged []MergedEvent, dumps map[string]live.TraceDump) (*tree.Tree, map[string]tree.NodeID, error) {
	children := map[string]map[string]bool{}
	parentOf := map[string]string{}
	root := ""
	for name, d := range dumps {
		if d.Root {
			root = name
		}
	}
	for _, m := range merged {
		e := m.Ev
		switch e.Kind {
		case live.EvRequestServed, live.EvChunkSend:
			// Parent-side-only events: Peer names a child. (Hellos are
			// recorded on both sides with different Peer meanings, so they
			// are not used for edges.)
			if e.Peer == "" || e.Peer == m.Node {
				continue
			}
			if children[m.Node] == nil {
				children[m.Node] = map[string]bool{}
			}
			if !children[m.Node][e.Peer] {
				children[m.Node][e.Peer] = true
				parentOf[e.Peer] = m.Node
			}
		}
	}
	if root == "" {
		// No dump claimed root: the node that is nobody's child.
		names := make([]string, 0, len(dumps))
		for n := range dumps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if _, hasParent := parentOf[n]; !hasParent {
				root = n
				break
			}
		}
	}
	if root == "" {
		return nil, nil, fmt.Errorf("bwtrace: cannot determine the root node")
	}

	tr := tree.New(1)
	ids := map[string]tree.NodeID{root: tr.Root()}
	queue := []string{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		kids := make([]string, 0, len(children[p]))
		for c := range children[p] {
			kids = append(kids, c)
		}
		sort.Strings(kids)
		for _, c := range kids {
			if _, done := ids[c]; done {
				continue
			}
			ids[c] = tr.AddChild(ids[p], 1, 1)
			queue = append(queue, c)
		}
	}
	return tr, ids, nil
}

// convert maps a merged live timeline onto internal/trace events. Every
// scheduling event comes from the parent side, recorded in the same
// critical section as the state change, so serviceability order is exact.
// A delivery is the parent's hand-off — the port turn that frees the
// child's in-flight slot — not the child's receipt: the port is pipelined,
// and the next dispatch to the same child may precede the receipt. The
// hand-off is the wire-carried cause of the child's task-received, so it
// also precedes everything the child does with the task.
func convert(merged []MergedEvent, ids map[string]tree.NodeID) []trace.Event {
	out := make([]trace.Event, 0, len(merged))
	// open is the task of the transfer each link's in-flight slot holds. A
	// handed-off transfer that a revive puts back on the port to resume has
	// been counted as delivered; its later segments are not the slot's.
	type link struct{ parent, child tree.NodeID }
	open := map[link]uint64{}
	for _, m := range merged {
		e := m.Ev
		node, ok := ids[m.Node]
		if !ok {
			continue
		}
		peer, peerOK := ids[e.Peer]
		at := sim.Time(m.At)
		l := link{node, peer}
		switch e.Kind {
		case live.EvRequestServed:
			if peerOK {
				out = append(out, trace.Event{At: at, Kind: trace.Request, Node: peer, Peer: -1, Value: e.Value})
			}
		case live.EvChunkSend:
			if peerOK {
				open[l] = e.Task
				out = append(out, trace.Event{At: at, Kind: trace.SendStart, Node: node, Peer: peer, Value: e.Value})
			}
		case live.EvChunkResume:
			if peerOK && open[l] == e.Task {
				out = append(out, trace.Event{At: at, Kind: trace.SendResume, Node: node, Peer: peer, Value: int64(e.Off)})
			}
		case live.EvChunkInterrupt:
			if peerOK && open[l] == e.Task {
				out = append(out, trace.Event{At: at, Kind: trace.SendInterrupt, Node: node, Peer: peer, Value: int64(e.Off)})
			}
		case live.EvHandoff:
			if peerOK && open[l] == e.Task {
				delete(open, l)
				out = append(out, trace.Event{At: at, Kind: trace.SendDone, Node: node, Peer: peer})
			}
		case live.EvRequeue:
			if peerOK {
				if open[l] == e.Task {
					delete(open, l)
				}
				out = append(out, trace.Event{At: at, Kind: trace.Requeue, Node: node, Peer: peer})
			}
		case live.EvComputeStart:
			out = append(out, trace.Event{At: at, Kind: trace.ComputeStart, Node: node, Peer: -1})
		case live.EvComputeDone:
			out = append(out, trace.Event{At: at, Kind: trace.ComputeDone, Node: node, Peer: -1})
		}
	}
	return out
}

// verifyMerged replays the merged timeline through the conformance
// checker. Tasks is the root pool bound: every distinct task ID seen.
func verifyMerged(merged []MergedEvent, dumps map[string]live.TraceDump) error {
	tr, ids, err := topology(merged, dumps)
	if err != nil {
		return err
	}
	tasks := map[uint64]bool{}
	for _, m := range merged {
		if m.Ev.Task != 0 {
			tasks[m.Ev.Task] = true
		}
	}
	rp := &trace.Replay{Tree: tr, Tasks: int64(len(tasks))}
	if err := rp.Run(convert(merged, ids)); err != nil {
		return err
	}
	if rp.Fresh == 0 && len(merged) > 0 {
		return fmt.Errorf("bwtrace: timeline contains no dispatches to verify")
	}
	return nil
}
