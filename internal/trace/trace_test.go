package trace_test

import (
	"strings"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/trace"
	"bwcs/internal/tree"
)

// runTraced executes a small two-child platform with the recorder
// attached.
func runTraced(t *testing.T, p protocol.Protocol, tasks int64) (*trace.Recorder, *engine.Result) {
	t.Helper()
	tr := tree.New(3)
	tr.AddChild(tr.Root(), 2, 1)   // fast link
	tr.AddChild(tr.Root(), 10, 10) // slow link
	rec := &trace.Recorder{}
	res, err := engine.Run(engine.Config{Tree: tr, Protocol: p, Tasks: tasks, Tracer: rec.Add})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rec, res
}

// kindCounts counts the recorded events of each kind.
func kindCounts(rec *trace.Recorder) map[trace.Kind]int {
	counts := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	return counts
}

func TestRecorderCapturesConsistentStory(t *testing.T) {
	rec, res := runTraced(t, protocol.Interruptible(1), 40)
	counts := kindCounts(rec)
	if counts[trace.ComputeDone] != 40 {
		t.Fatalf("ComputeDone events = %d, want 40", counts[trace.ComputeDone])
	}
	if counts[trace.ComputeStart] != counts[trace.ComputeDone] {
		t.Fatalf("starts %d != dones %d", counts[trace.ComputeStart], counts[trace.ComputeDone])
	}
	// Every interruption must be followed by exactly one resume (all
	// shelved transfers eventually complete).
	if counts[trace.SendInterrupt] != counts[trace.SendResume] {
		t.Fatalf("interrupts %d != resumes %d", counts[trace.SendInterrupt], counts[trace.SendResume])
	}
	if counts[trace.SendInterrupt] == 0 {
		t.Fatalf("expected interruptions on this platform")
	}
	// Sends started (fresh) must equal sends completed.
	if counts[trace.SendStart] != counts[trace.SendDone] {
		t.Fatalf("send starts %d != dones %d", counts[trace.SendStart], counts[trace.SendDone])
	}
	if int64(counts[trace.SendDone]) != res.Nodes[0].Forwarded {
		t.Fatalf("send dones %d != forwarded %d", counts[trace.SendDone], res.Nodes[0].Forwarded)
	}
	// Events are time-ordered.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestRecorderGrowthEvents(t *testing.T) {
	rec, res := runTraced(t, protocol.NonInterruptible(1), 40)
	var grows []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.Grow {
			grows = append(grows, e)
		}
	}
	var grown int64
	for i := range res.Nodes {
		grown += res.Nodes[i].Buffers - 1
	}
	if int64(len(grows)) != grown {
		t.Fatalf("grow events %d != capacity growth %d", len(grows), grown)
	}
	// Capacity values are monotone per node.
	last := map[tree.NodeID]int64{}
	for _, e := range grows {
		if e.Value <= last[e.Node] {
			t.Fatalf("capacity not monotone at %v", e)
		}
		last[e.Node] = e.Value
	}
}

func TestMaxCapsRecording(t *testing.T) {
	tr := tree.New(2)
	rec := &trace.Recorder{Max: 5}
	if _, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(1), Tasks: 100, Tracer: rec.Add}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := len(rec.Events()); n != 5 {
		t.Fatalf("recorded %d events, want 5", n)
	}
}

func TestEventString(t *testing.T) {
	e := trace.Event{At: 7, Kind: trace.SendStart, Node: 1, Peer: 2, Value: 9}
	if got := e.String(); !strings.Contains(got, "send-start") || !strings.Contains(got, "1->2") {
		t.Fatalf("String = %q", got)
	}
	e2 := trace.Event{At: 3, Kind: trace.ComputeDone, Node: 4, Peer: -1, Value: 10}
	if got := e2.String(); !strings.Contains(got, "compute-done") || strings.Contains(got, "->") {
		t.Fatalf("String = %q", got)
	}
	if !strings.Contains(trace.Kind(99).String(), "99") {
		t.Fatalf("unknown kind string")
	}
}

func TestTimeline(t *testing.T) {
	rec, res := runTraced(t, protocol.Interruptible(1), 20)
	var b strings.Builder
	if err := rec.Timeline(&b, 0, res.Makespan, 1, 0); err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "#") {
		t.Fatalf("no compute marks:\n%s", out)
	}
	if !strings.Contains(out, ">") {
		t.Fatalf("no send marks:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 nodes
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// The root (node 0) works essentially continuously (a send mark
	// overwrites a simultaneous compute mark in its bucket): its row
	// should be mostly busy.
	row0 := lines[1]
	row0 = row0[strings.Index(row0, "|")+1 : strings.LastIndex(row0, "|")]
	busy := strings.Count(row0, "#") + strings.Count(row0, ">")
	if busy < len(row0)/2 {
		t.Fatalf("root row suspiciously idle:\n%s", out)
	}
}

func TestTimelineErrors(t *testing.T) {
	rec := &trace.Recorder{}
	var b strings.Builder
	if err := rec.Timeline(&b, 0, 10, 0, 0); err == nil {
		t.Fatalf("zero bucket accepted")
	}
	if err := rec.Timeline(&b, 10, 10, 1, 0); err == nil {
		t.Fatalf("empty interval accepted")
	}
	if err := rec.Timeline(&b, 0, 1<<20, 1, 0); err == nil {
		t.Fatalf("oversized timeline accepted")
	}
	b.Reset()
	if err := rec.Timeline(&b, 0, 10, 1, 0); err != nil {
		t.Fatalf("empty recorder: %v", err)
	}
	if !strings.Contains(b.String(), "no events") {
		t.Fatalf("empty recorder output: %q", b.String())
	}
}

// TestInterruptionVisibleInTrace pins the semantics of preemption at the
// event level: an interrupt of a send to the slow child is followed by a
// fresh send to the fast child before the slow transfer resumes.
func TestInterruptionVisibleInTrace(t *testing.T) {
	rec, _ := runTraced(t, protocol.Interruptible(1), 40)
	evs := rec.Events()
	for i, e := range evs {
		if e.Kind != trace.SendInterrupt {
			continue
		}
		if e.Peer != 2 {
			t.Fatalf("interrupted send to child %d, want the slow child 2", e.Peer)
		}
		// The very next transfer action from the root must target the
		// fast child.
		for j := i + 1; j < len(evs); j++ {
			if evs[j].Node == 0 && (evs[j].Kind == trace.SendStart || evs[j].Kind == trace.SendResume) {
				if evs[j].Peer != 1 {
					t.Fatalf("after interrupt, sent to %d, want fast child 1", evs[j].Peer)
				}
				break
			}
		}
		return // checking the first interruption suffices
	}
	t.Fatalf("no interruption found")
}
