package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bwcs/live"
)

var update = flag.Bool("update", false, "rewrite golden files")

// synthDumps builds a hand-crafted two-node run — one complete task
// journey, hello through result collection — with the worker's clock
// skewed a full millisecond ahead of the root's and every frame taking
// 500ns of transit. The symmetric-delay alignment must recover the skew
// exactly, so the merged timeline below is asserted in true-time order.
func synthDumps() map[string]live.TraceDump {
	const skew = 1_000_000 // w1 local clock = true time + skew
	w1 := func(seq uint64, truth int64, e live.Event) live.Event {
		e.Seq, e.At = seq, truth+skew
		return e
	}
	rt := func(seq uint64, truth int64, e live.Event) live.Event {
		e.Seq, e.At = seq, truth
		return e
	}
	return map[string]live.TraceDump{
		"root": {
			Node: "root", Root: true, EpochUnixNano: 1_700_000_000_000_000_000,
			Events: []live.Event{
				rt(1, 1500, live.Event{Kind: live.EvHello, Peer: "w1", CauseSeq: 1}),
				rt(2, 2600, live.Event{Kind: live.EvRequestServed, Peer: "w1", Value: 3, CauseSeq: 3}),
				rt(3, 3000, live.Event{Kind: live.EvChunkSend, Task: 1, Peer: "w1"}),
				rt(4, 3100, live.Event{Kind: live.EvHandoff, Task: 1, Peer: "w1"}),
				rt(5, 4900, live.Event{Kind: live.EvResultRecv, Task: 1, Origin: "w1", Peer: "w1", CauseSeq: 8}),
				rt(6, 5000, live.Event{Kind: live.EvResultCollect, Task: 1, Origin: "w1"}),
			},
		},
		"w1": {
			Node: "w1", EpochUnixNano: 1_700_000_000_000_000_000,
			Events: []live.Event{
				w1(1, 1000, live.Event{Kind: live.EvHello, Peer: "parent"}),
				w1(2, 2000, live.Event{Kind: live.EvHelloAck, Peer: "root", CauseSeq: 1}),
				w1(3, 2100, live.Event{Kind: live.EvRequestSent, Peer: "root", Value: 3}),
				w1(4, 3600, live.Event{Kind: live.EvChunkRecv, Task: 1, Peer: "root", CauseSeq: 4}),
				w1(5, 3700, live.Event{Kind: live.EvTaskReceived, Task: 1, Peer: "root", Off: 4096, CauseSeq: 4}),
				w1(6, 3800, live.Event{Kind: live.EvComputeStart, Task: 1}),
				w1(7, 4300, live.Event{Kind: live.EvComputeDone, Task: 1, Origin: "w1", Value: 500}),
				w1(8, 4400, live.Event{Kind: live.EvResultSend, Task: 1, Origin: "w1", Peer: "root"}),
				w1(9, 5400, live.Event{Kind: live.EvResultAck, Task: 1, Origin: "w1", Peer: "root", CauseSeq: 5}),
			},
		},
	}
}

// TestMergeAlignsSkewedClocks pins the whole merge pipeline on the
// synthetic journey: the per-link symmetric-delay estimate recovers the
// worker's millisecond skew exactly, the merged timeline comes out in
// true-time order with per-node sequence order intact, no event precedes
// its cause, and the merge is deterministic.
func TestMergeAlignsSkewedClocks(t *testing.T) {
	dumps := synthDumps()
	merged := mergeDumps(dumps)

	total := len(dumps["root"].Events) + len(dumps["w1"].Events)
	if len(merged) != total {
		t.Fatalf("merged %d events, want %d", len(merged), total)
	}
	// Transit is symmetric (500ns each way), so the estimated offset is
	// exact and aligned timestamps equal true time; assert the full order.
	wantOrder := []struct {
		node string
		seq  uint64
		at   int64
	}{
		{"w1", 1, 1000}, {"root", 1, 1500}, {"w1", 2, 2000}, {"w1", 3, 2100},
		{"root", 2, 2600}, {"root", 3, 3000}, {"root", 4, 3100}, {"w1", 4, 3600},
		{"w1", 5, 3700}, {"w1", 6, 3800}, {"w1", 7, 4300},
		{"w1", 8, 4400}, {"root", 5, 4900}, {"root", 6, 5000}, {"w1", 9, 5400},
	}
	for i, w := range wantOrder {
		m := merged[i]
		if m.Node != w.node || m.Ev.Seq != w.seq || m.At != w.at {
			t.Fatalf("merged[%d] = %s#%d at %d, want %s#%d at %d",
				i, m.Node, m.Ev.Seq, m.At, w.node, w.seq, w.at)
		}
	}
	assertCausalOrder(t, merged)

	again := mergeDumps(synthDumps())
	for i := range merged {
		if merged[i] != again[i] {
			t.Fatalf("merge is not deterministic at index %d: %+v vs %+v", i, merged[i], again[i])
		}
	}
}

// assertCausalOrder fails if any merged event with a resolvable cause
// appears before that cause.
func assertCausalOrder(t *testing.T, merged []MergedEvent) {
	t.Helper()
	emitted := map[string]uint64{}
	present := map[string]bool{}
	for _, m := range merged {
		present[m.Node] = true
	}
	for i, m := range merged {
		e := m.Ev
		if e.CauseSeq != 0 && present[e.Peer] && e.CauseSeq > emitted[e.Peer] {
			// Only a violation if the cause exists in the loaded window.
			for _, later := range merged[i:] {
				if later.Node == e.Peer && later.Ev.Seq == e.CauseSeq {
					t.Fatalf("merged[%d] %s/%v precedes its cause %s#%d", i, m.Node, e.Kind, e.Peer, e.CauseSeq)
				}
			}
		}
		emitted[m.Node] = e.Seq
	}
}

// TestMergeCausalOverridesRawTime forces the case alignment cannot fix:
// the only cross-node reference is an EvTaskReceived (excluded from
// alignment samples, because its cause is a whole transfer away), the
// epochs agree, and the receiver's clock runs behind — raw timestamps
// would put the delivery before the dispatch. The causal pass must hold
// the effect back until its cause is out.
func TestMergeCausalOverridesRawTime(t *testing.T) {
	dumps := map[string]live.TraceDump{
		"root": {Node: "root", Root: true, Events: []live.Event{
			{Seq: 1, At: 3000, Kind: live.EvChunkSend, Task: 1, Peer: "w1"},
		}},
		"w1": {Node: "w1", Events: []live.Event{
			{Seq: 1, At: 2500, Kind: live.EvTaskReceived, Task: 1, Peer: "root", CauseSeq: 1},
		}},
	}
	merged := mergeDumps(dumps)
	if len(merged) != 2 {
		t.Fatalf("merged %d events, want 2", len(merged))
	}
	if merged[0].Node != "root" || merged[0].Ev.Kind != live.EvChunkSend {
		t.Fatalf("merged[0] = %s/%v, want the causing dispatch first", merged[0].Node, merged[0].Ev.Kind)
	}
	if merged[1].Node != "w1" || merged[1].Ev.Kind != live.EvTaskReceived {
		t.Fatalf("merged[1] = %s/%v, want the delivery second", merged[1].Node, merged[1].Ev.Kind)
	}
}

// TestVerifySyntheticJourney replays the synthetic journey through the
// conformance checker: request before dispatch, dispatch from a held
// task, delivery before compute — the stream must pass, and mutilating
// it (dispatch with the request stripped) must fail.
func TestVerifySyntheticJourney(t *testing.T) {
	dumps := synthDumps()
	if err := verifyMerged(mergeDumps(dumps), dumps); err != nil {
		t.Fatalf("synthetic journey fails conformance: %v", err)
	}

	// Strip the request-served event: the dispatch now serves a child
	// that never asked, which the replay must reject.
	broken := synthDumps()
	rd := broken["root"]
	rd.Events = append(rd.Events[:1:1], rd.Events[2:]...)
	broken["root"] = rd
	if err := verifyMerged(mergeDumps(broken), broken); err == nil {
		t.Fatal("dispatch without a registered request passed conformance")
	}
}

// TestVerifyRefusesTruncatedDumps: a dump whose ring dropped the start of
// its node's history cannot be replayed from the start of the run, so
// -verify refuses it, naming the node and the count, whether the cut would
// show as a false violation (the root's, after its request-served event)
// or as nothing at all (the worker's, before its compute start). Printing
// and the Chrome export still take such dumps.
func TestVerifyRefusesTruncatedDumps(t *testing.T) {
	for _, cut := range []struct {
		node    string
		dropped int
	}{{"root", 2}, {"w1", 5}} {
		dir := t.TempDir()
		var paths []string
		for _, d := range synthDumps() {
			if d.Node == cut.node {
				d.Events, d.Dropped = d.Events[cut.dropped:], int64(cut.dropped)
			}
			paths = append(paths, writeDump(t, dir, d))
		}
		err := run(append([]string{"-q", "-verify"}, paths...))
		if want := fmt.Sprintf("node %q's whole history, and its ring dropped the first %d events", cut.node, cut.dropped); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s cut: -verify says %v, want a refusal containing %s", cut.node, err, want)
		}
		if err := run(append([]string{"-q", "-task", "1", "-chrome", filepath.Join(dir, "chrome.json")}, paths...)); err != nil {
			t.Errorf("%s cut: printing and export refuse the dumps: %v", cut.node, err)
		}
	}
}

// TestChromeGolden pins the Chrome trace-event export byte for byte
// against testdata/chrome_golden.json (regenerate with -update). The
// export must also be valid JSON with the expected compute slice.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChrome(&buf, mergeDumps(synthDumps())); err != nil {
		t.Fatalf("writeChrome: %v", err)
	}
	got := buf.Bytes()
	if !json.Valid(got) {
		t.Fatalf("export is not valid JSON:\n%s", got)
	}
	// The compute pair renders as one real-duration slice: 3800..4300
	// true-time, 1000 is the timeline base, so ts 2.800 dur 0.500.
	if !bytes.Contains(got, []byte(`{"name":"compute task 1","cat":"compute","ph":"X","ts":2.800,"dur":0.500,"pid":2,"tid":1}`)) {
		t.Errorf("export lacks the expected compute slice:\n%s", got)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export drifted from golden (run with -update if intended)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadsV3Dumps: a dump written before wire v4, whose events also carry
// wireSeq (the frame's node-wide sequence number) and causePeer (the
// sender's name, always the event's own peer), still loads, and merges to
// the same timeline and the same Chrome export as the dump without them.
func TestLoadsV3Dumps(t *testing.T) {
	wireSeqs := map[string]map[uint64]int{ // node → event seq → its frame's wireSeq
		"root": {1: 1, 2: 2, 5: 5},
		"w1":   {1: 1, 2: 2, 3: 2, 4: 3, 8: 5, 9: 3},
	}
	load := func(v3 bool) ([]MergedEvent, []byte) {
		dumps := map[string]live.TraceDump{}
		for name, d := range synthDumps() {
			path := writeDump(t, t.TempDir(), d)
			if v3 {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]any
				if err := json.Unmarshal(b, &doc); err != nil {
					t.Fatal(err)
				}
				for _, x := range doc["events"].([]any) {
					e := x.(map[string]any)
					if w := wireSeqs[name][uint64(e["seq"].(float64))]; w != 0 {
						e["wireSeq"] = w
					}
					if _, ok := e["causeSeq"]; ok {
						e["causePeer"] = e["peer"]
					}
				}
				if b, err = json.Marshal(doc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(b, []byte(`"causePeer"`)) || !bytes.Contains(b, []byte(`"wireSeq"`)) {
					t.Fatalf("%s: the v3 dump carries neither field:\n%s", name, b)
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			loaded, err := loadDump(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			dumps[name] = loaded
		}
		merged := mergeDumps(dumps)
		var chrome bytes.Buffer
		if err := writeChrome(&chrome, merged); err != nil {
			t.Fatalf("writeChrome: %v", err)
		}
		return merged, chrome.Bytes()
	}
	old, oldChrome := load(true)
	now, nowChrome := load(false)
	if !reflect.DeepEqual(old, now) {
		t.Errorf("the v3 dump merges to\n%+v\nwant\n%+v", old, now)
	}
	if !bytes.Equal(oldChrome, nowChrome) {
		t.Errorf("the v3 dump exports\n%s\nwant\n%s", oldChrome, nowChrome)
	}
}

// writeDump marshals a dump the way bwnode -trace-out does.
func writeDump(t *testing.T, dir string, d live.TraceDump) string {
	t.Helper()
	p := filepath.Join(dir, d.Node+".json")
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSeverDuringReplayTimeline is the acceptance scenario: the ROADMAP
// repro configuration (uplink severed while the worker is sending — and,
// after the first reconnect, replaying — results) run in-process, both
// flight recorders dumped, and the dumps pushed through the full bwtrace
// pipeline. The merged timeline must show the lost-and-replayed result's
// journey as linked events across both nodes — send, sever, replay, the
// root's receive naming the replay, ack, collect — and pass the
// protocol-conformance replay.
func TestSeverDuringReplayTimeline(t *testing.T) {
	const tasks = 40
	plan := live.NewFaultPlan(
		live.FaultRule{Link: "parent", Dir: live.FaultSend, Kind: live.FrameResult, After: 3, Op: live.FaultSever},
		live.FaultRule{Link: "parent", Dir: live.FaultSend, Kind: live.FrameResult, After: 6, Op: live.FaultSever},
	)
	root, err := live.Start("root", live.WithListen("127.0.0.1:0"), live.WithBuffers(3),
		live.WithCompute(func(tk live.Task) ([]byte, error) { time.Sleep(15 * time.Millisecond); return tk.Payload, nil }),
		live.WithHeartbeat(100*time.Millisecond, 0),
		// The first result's ack is lost, so a written, unacked result is
		// in the ledger when the first sever lands and the reconnect has
		// one to replay whatever the timing of the other acks (as in
		// live's TestRoadmapStallRepro).
		live.WithFaultPlan(live.NewFaultPlan(live.FaultRule{Link: "w", Dir: live.FaultSend, Kind: live.FrameResultAck, Op: live.FaultDrop})))
	if err != nil {
		t.Fatalf("start root: %v", err)
	}
	defer root.Close()
	w, err := live.Start("w", live.WithParent(root.Addr()), live.WithBuffers(3),
		live.WithCompute(func(tk live.Task) ([]byte, error) { time.Sleep(5 * time.Millisecond); return tk.Payload, nil }),
		live.WithFaultPlan(plan),
		live.WithReconnect(20*time.Millisecond, 100*time.Millisecond, 20))
	if err != nil {
		t.Fatalf("start worker: %v", err)
	}
	defer w.Close()

	in := make([]live.Task, tasks)
	for i := range in {
		in[i] = live.Task{ID: uint64(i + 1), Payload: bytes.Repeat([]byte{byte(i)}, 256)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := root.Run(ctx, in)
	if err != nil {
		t.Fatalf("run across the sever windows: %v", err)
	}
	if len(results) != tasks {
		t.Fatalf("collected %d results, want %d", len(results), tasks)
	}
	if plan.Pending() != 0 {
		t.Fatalf("the scripted severs never fired: %d pending", plan.Pending())
	}

	dumps := map[string]live.TraceDump{"root": root.TraceDump(), "w": w.TraceDump()}
	dir := t.TempDir()
	rootPath := writeDump(t, dir, dumps["root"])
	wPath := writeDump(t, dir, dumps["w"])

	// The CLI end to end: load, merge, verify, export.
	chromeOut := filepath.Join(dir, "chrome.json")
	if err := run([]string{"-q", "-verify", "-chrome", chromeOut, rootPath, wPath}); err != nil {
		t.Fatalf("bwtrace -verify -chrome on the repro dumps: %v", err)
	}
	if b, err := os.ReadFile(chromeOut); err != nil || !json.Valid(b) {
		t.Fatalf("chrome export unreadable or invalid JSON: %v", err)
	}

	merged := mergeDumps(dumps)
	assertCausalOrder(t, merged)

	// Index the merged timeline by position for the journey assertions.
	pos := func(match func(MergedEvent) bool) int {
		for i, m := range merged {
			if match(m) {
				return i
			}
		}
		return -1
	}
	// Find a replayed result the root received: a worker result-replay
	// event that some root result-recv names as its cause.
	replayIdx, recvIdx := -1, -1
	var task uint64
	for i, m := range merged {
		if m.Node != "w" || m.Ev.Kind != live.EvResultReplay {
			continue
		}
		j := pos(func(x MergedEvent) bool {
			return x.Node == "root" && x.Ev.Kind == live.EvResultRecv &&
				x.Ev.Peer == "w" && x.Ev.CauseSeq == m.Ev.Seq
		})
		if j >= 0 {
			replayIdx, recvIdx, task = i, j, m.Ev.Task
			break
		}
	}
	if replayIdx < 0 {
		t.Fatal("no replayed result was received by the root: the repro did not exercise the replay path")
	}

	// The journey's legs, in merged order: the original send, the sever
	// that swallowed (or followed) it, the replay, the root's receive
	// naming the replay, the worker's ack, and the root's collection.
	sendIdx := pos(func(x MergedEvent) bool {
		return x.Node == "w" && x.Ev.Kind == live.EvResultSend && x.Ev.Task == task
	})
	severIdx := pos(func(x MergedEvent) bool { return x.Node == "w" && x.Ev.Kind == live.EvSever })
	ackIdx := pos(func(x MergedEvent) bool {
		return x.Node == "w" && x.Ev.Kind == live.EvResultAck && x.Ev.Task == task
	})
	// The journey's terminal leg follows the replay's arrival: a dedupe
	// when the original send actually made it (only its ack was lost), a
	// collection when the sever swallowed the result itself.
	doneIdx := -1
	for i := recvIdx + 1; i < len(merged); i++ {
		x := merged[i]
		if x.Node == "root" && x.Ev.Task == task &&
			(x.Ev.Kind == live.EvResultCollect || x.Ev.Kind == live.EvResultDedupe) {
			doneIdx = i
			break
		}
	}
	for leg, idx := range map[string]int{
		"result-send": sendIdx, "sever": severIdx, "result-ack": ackIdx, "collect/dedupe": doneIdx,
	} {
		if idx < 0 {
			t.Fatalf("task %d journey is missing its %s event", task, leg)
		}
	}
	if !(sendIdx < replayIdx && severIdx < replayIdx && replayIdx < recvIdx && recvIdx < doneIdx) {
		t.Errorf("task %d journey out of order: send=%d sever=%d replay=%d recv=%d done=%d",
			task, sendIdx, severIdx, replayIdx, recvIdx, doneIdx)
	}
	if recvIdx > ackIdx {
		t.Errorf("task %d acked before the root received it: recv=%d ack=%d", task, recvIdx, ackIdx)
	}

	// And the merged timeline passes the conformance replay directly
	// (run -verify already checked this through the CLI).
	if err := verifyMerged(merged, dumps); err != nil {
		t.Errorf("merged repro timeline fails conformance: %v", err)
	}

	// A root-only merge (worker dump withheld) must also verify: requests,
	// dispatches and deliveries (hand-offs) are all parent-side events.
	rootOnly := map[string]live.TraceDump{"root": dumps["root"]}
	if err := verifyMerged(mergeDumps(rootOnly), rootOnly); err != nil {
		t.Errorf("root-only timeline fails conformance: %v", err)
	}
}

// TestRunRejectsBadInput covers the CLI's error paths: no dumps, a
// non-dump file, and two dumps for the same node.
func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("run with no dumps succeeded")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-q", bad}); err == nil {
		t.Error("run accepted a dump with no node name")
	}
	d := writeDump(t, dir, live.TraceDump{Node: "n1", Events: []live.Event{}})
	if err := run([]string{"-q", d, d}); err == nil {
		t.Error("run accepted two dumps for the same node")
	}
}
