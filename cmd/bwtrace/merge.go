package main

// Merging per-node flight-recorder dumps into one causal timeline.
//
// Each node's events carry timestamps on its own monotonic clock. The
// merger first aligns clocks per link: a chunk or result receipt names the
// sending node's event (Peer/CauseSeq), so each matched pair bounds
// the clock offset from one side, and the two directions of a link bound
// it from both — the classic symmetric-delay estimate offset =
// (d1 - d2)/2 over the minimum observed deltas. Offsets compose along the
// tree from the root. Nodes that share no usable pairs fall back to
// wall-clock epoch differences.
//
// The merge itself is causal, not just temporal: a per-node cursor k-way
// merge that never emits an event before the peer event it names. Clock
// alignment makes the result close to true order; the causal constraint
// makes cross-node arrows consistent even where alignment is off by a
// transit time. Causality follows real message flow, so the constraint
// graph is acyclic and the merge cannot deadlock; a cause evicted from its
// ring (seq <= Dropped) or absent from the loaded dumps counts as
// satisfied.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"bwcs/live"
)

// MergedEvent is one event of the merged timeline: the original recorder
// event, the node it came from, and its timestamp aligned to the root
// node's clock.
type MergedEvent struct {
	Node string
	At   int64 // ns on the root's (first dump's) clock
	Ev   live.Event
}

func loadDump(path string) (live.TraceDump, error) {
	var d live.TraceDump
	f, err := os.Open(path)
	if err != nil {
		return d, err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if d.Node == "" {
		return d, fmt.Errorf("%s: not a trace dump (no node name)", path)
	}
	return d, nil
}

// alignable reports whether an event is a clock-alignment sample: the
// receipt of a chunk segment (down) or of a result (up), which every task
// makes cross its links, each one frame's transit behind its cause — a
// task-received is a whole segment's.
func alignable(e live.Event) bool {
	return e.CauseSeq != 0 && (e.Kind == live.EvChunkRecv || e.Kind == live.EvResultRecv)
}

// clockShifts computes, for every dump, the shift that maps its local
// timestamps onto the root dump's clock. Dumps are keyed by node name.
func clockShifts(dumps map[string]live.TraceDump, root string) map[string]int64 {
	// byNodeSeq resolves a (node, seq) cause reference to its timestamp.
	byNodeSeq := make(map[string]map[uint64]int64, len(dumps))
	for name, d := range dumps {
		m := make(map[uint64]int64, len(d.Events))
		for _, e := range d.Events {
			m[e.Seq] = e.At
		}
		byNodeSeq[name] = m
	}

	// delta[a][b] is the minimum observed (receiver local - sender local)
	// over frames a sent to b: min transit plus the base offset.
	delta := make(map[string]map[string]int64)
	seen := make(map[string]map[string]bool)
	for name, d := range dumps {
		for _, e := range d.Events {
			if !alignable(e) {
				continue
			}
			causeAt, ok := byNodeSeq[e.Peer][e.CauseSeq]
			if !ok {
				continue
			}
			dt := e.At - causeAt
			if delta[e.Peer] == nil {
				delta[e.Peer] = make(map[string]int64)
				seen[e.Peer] = make(map[string]bool)
			}
			if !seen[e.Peer][name] || dt < delta[e.Peer][name] {
				delta[e.Peer][name] = dt
				seen[e.Peer][name] = true
			}
		}
	}

	// Walk outward from the root, composing per-link offsets.
	shift := map[string]int64{root: 0}
	queue := []string{root}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		// Deterministic visit order.
		var peers []string
		for b := range dumps {
			if _, done := shift[b]; !done && (seen[a][b] || seen[b][a]) {
				peers = append(peers, b)
			}
		}
		sort.Strings(peers)
		for _, b := range peers {
			var baseDiff int64 // baseB - baseA
			dAB, okAB := delta[a][b]
			dBA, okBA := delta[b][a]
			switch {
			case okAB && okBA:
				// dAB = transit + baseA - baseB; dBA = transit' + baseB - baseA.
				baseDiff = (dBA - dAB) / 2
			case okAB:
				baseDiff = -dAB // assume zero transit
			case okBA:
				baseDiff = dBA
			}
			shift[b] = shift[a] + baseDiff
			queue = append(queue, b)
		}
	}
	// Anything unreached (no link pairs at all): wall-clock fallback.
	rootEpoch := dumps[root].EpochUnixNano
	for name, d := range dumps {
		if _, ok := shift[name]; !ok {
			shift[name] = d.EpochUnixNano - rootEpoch
		}
	}
	return shift
}

// mergeDumps builds the single causal timeline from per-node dumps.
func mergeDumps(dumps map[string]live.TraceDump) []MergedEvent {
	root := ""
	names := make([]string, 0, len(dumps))
	for name, d := range dumps {
		names = append(names, name)
		if d.Root {
			root = name
		}
	}
	sort.Strings(names)
	if root == "" && len(names) > 0 {
		root = names[0]
	}
	shift := clockShifts(dumps, root)

	// Per-node cursors; per-node event order (ascending Seq) is preserved,
	// so "cause emitted" reduces to a per-node high-water mark.
	cursor := make(map[string]int, len(dumps))
	emitted := make(map[string]uint64, len(dumps))
	satisfied := func(e live.Event) bool {
		if e.CauseSeq == 0 {
			return true
		}
		d, ok := dumps[e.Peer]
		if !ok || len(d.Events) == 0 {
			return true // cause node's dump not loaded (or empty)
		}
		if e.CauseSeq <= uint64(d.Dropped) {
			return true // cause evicted from its ring before the dump
		}
		if e.CauseSeq > d.Events[len(d.Events)-1].Seq {
			return true // cause recorded after the dump was taken
		}
		return e.CauseSeq <= emitted[e.Peer]
	}

	total := 0
	for _, d := range dumps {
		total += len(d.Events)
	}
	out := make([]MergedEvent, 0, total)
	for len(out) < total {
		bestName := ""
		var bestAt int64
		// Pass 1: the earliest eligible head. Pass 2 (fallback, cannot
		// happen for causally consistent dumps): the earliest head.
		for pass := 0; pass < 2 && bestName == ""; pass++ {
			for _, name := range names {
				d := dumps[name]
				i := cursor[name]
				if i >= len(d.Events) {
					continue
				}
				e := d.Events[i]
				if pass == 0 && !satisfied(e) {
					continue
				}
				at := e.At + shift[name]
				if bestName == "" || at < bestAt || (at == bestAt && name < bestName) {
					bestName, bestAt = name, at
				}
			}
		}
		e := dumps[bestName].Events[cursor[bestName]]
		cursor[bestName]++
		emitted[bestName] = e.Seq
		out = append(out, MergedEvent{Node: bestName, At: e.At + shift[bestName], Ev: e})
	}
	return out
}
