package main

// Chrome trace-event JSON export of a merged timeline, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Each overlay node
// becomes a process; computations render as duration slices, every other
// event as a thin slice; wire-carried causality renders as flow arrows
// from the sending event to the receiving one.
//
// Fields are written by hand in a fixed order so the output is
// byte-stable for a given timeline — the golden test depends on it.

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"bwcs/live"
)

// chromeTS renders an aligned nanosecond timestamp as trace-event
// microseconds. Merged timestamps can be slightly negative for events
// before the root's first sample on a skewed clock; the export shifts all
// of them so the earliest is 0.
func chromeTS(ns int64) string {
	us := ns / 1000
	frac := ns % 1000
	return fmt.Sprintf("%d.%03d", us, frac)
}

// eventName labels a slice for the trace viewer.
func eventName(e live.Event) string {
	if e.Task != 0 {
		return fmt.Sprintf("%s task %d", e.Kind, e.Task)
	}
	return e.Kind.String()
}

// writeChrome renders the merged timeline as Chrome trace-event JSON.
func writeChrome(w io.Writer, merged []MergedEvent) error {
	// Stable process IDs: node names sorted, pid = index+1.
	nodeSet := map[string]bool{}
	for _, m := range merged {
		nodeSet[m.Node] = true
	}
	names := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		names = append(names, n)
	}
	sort.Strings(names)
	pid := make(map[string]int, len(names))
	for i, n := range names {
		pid[n] = i + 1
	}

	// Shift so the earliest event lands at ts 0.
	var base int64
	for i, m := range merged {
		if i == 0 || m.At < base {
			base = m.At
		}
	}

	// Flow arrows: one per event whose cause is present in the timeline.
	type key struct {
		node string
		seq  uint64
	}
	index := make(map[key]int, len(merged))
	for i, m := range merged {
		index[key{m.Node, m.Ev.Seq}] = i
	}

	if _, err := fmt.Fprint(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := fmt.Fprint(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprint(w, line)
		return err
	}
	for _, n := range names {
		if err := emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":%s}}",
			pid[n], strconv.Quote(n))); err != nil {
			return err
		}
	}

	// Compute durations: ComputeDone carries the elapsed ns; render the
	// pair as one slice anchored at the start event.
	computeStart := map[key]int64{} // (node, task) -> aligned start; seq abused as task id
	flowID := 0
	for _, m := range merged {
		e := m.Ev
		ts := chromeTS(m.At - base)
		switch e.Kind {
		case live.EvComputeStart:
			computeStart[key{m.Node, e.Task}] = m.At
			continue // the Done event renders the slice
		case live.EvComputeDone:
			start, ok := computeStart[key{m.Node, e.Task}]
			if !ok {
				start = m.At - e.Value
			}
			delete(computeStart, key{m.Node, e.Task})
			if err := emit(fmt.Sprintf("{\"name\":%s,\"cat\":\"compute\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":1}",
				strconv.Quote(fmt.Sprintf("compute task %d", e.Task)), chromeTS(start-base), chromeTS(m.At-start), pid[m.Node])); err != nil {
				return err
			}
		default:
			if err := emit(fmt.Sprintf("{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":1.000,\"pid\":%d,\"tid\":1}",
				strconv.Quote(eventName(e)), strconv.Quote(category(e.Kind)), ts, pid[m.Node])); err != nil {
				return err
			}
		}
		if e.CauseSeq != 0 {
			if ci, ok := index[key{e.Peer, e.CauseSeq}]; ok {
				flowID++
				cause := merged[ci]
				if err := emit(fmt.Sprintf("{\"name\":\"wire\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":%s,\"pid\":%d,\"tid\":1,\"id\":%d}",
					chromeTS(cause.At-base), pid[cause.Node], flowID)); err != nil {
					return err
				}
				if err := emit(fmt.Sprintf("{\"name\":\"wire\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":%s,\"pid\":%d,\"tid\":1,\"id\":%d}",
					ts, pid[m.Node], flowID)); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprint(w, "\n]}\n")
	return err
}

// category groups event kinds into trace-viewer categories.
func category(k live.EventKind) string {
	switch k {
	case live.EvChunkSend, live.EvChunkResume, live.EvChunkInterrupt, live.EvHandoff,
		live.EvChunkRecv, live.EvTaskReceived:
		return "transfer"
	case live.EvResultSend, live.EvResultReplay, live.EvResultRecv, live.EvResultDedupe,
		live.EvResultAck, live.EvResultCollect:
		return "result"
	case live.EvRequestSent, live.EvRequestServed:
		return "request"
	case live.EvHeartbeatMiss, live.EvSever, live.EvReconnect, live.EvRequeue, live.EvRevive:
		return "recovery"
	default:
		return "session"
	}
}
