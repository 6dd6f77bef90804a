package live

// Tests for exactly-once result delivery: the unacked-result ledger and
// its ack-retire/replay/retry machinery, parent-side dedupe, and
// revive-time reconciliation. The headline scenarios pin the ROADMAP
// stall — a result frame lost in a sever window used to hang Run forever
// because the perpetually revived session never hit the grace-expiry
// requeue.

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"testing"
	"time"
)

// assertExactlyOnce checks a completed run delivered every task ID in
// [1, n] exactly once.
func assertExactlyOnce(t *testing.T, results []Result, n int) {
	t.Helper()
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	seen := make(map[uint64]bool, n)
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("task %d delivered twice", r.ID)
		}
		seen[r.ID] = true
	}
	for id := uint64(1); id <= uint64(n); id++ {
		if !seen[id] {
			t.Fatalf("task %d never delivered", id)
		}
	}
}

// TestResultDropInSeverWindowCompletes is the acceptance scenario for the
// acked result path: one result frame is silently dropped (the send
// "succeeds", so before the ledger the result was gone for good) and a
// later result send severs the uplink. Retransmission is disabled, so
// only the reconnect replay can recover the dropped frame — the run must
// complete with every result exactly once instead of hanging.
func TestResultDropInSeverWindowCompletes(t *testing.T) {
	const tasks = 30
	plan := NewFaultPlan(
		FaultRule{Link: "parent", Dir: FaultSend, Kind: FrameResult, After: 2, Op: FaultDrop},
		FaultRule{Link: "parent", Dir: FaultSend, Kind: FrameResult, After: 4, Op: FaultSever},
	)
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute:        echoCompute(20 * time.Millisecond),
		ReconnectGrace: 10 * time.Second, // the session must revive, not reclaim
	})
	w := startNode(t, Config{
		Name: "w", Parent: root.Addr(), Buffers: 3,
		Compute:       echoCompute(2 * time.Millisecond),
		Faults:        plan,
		ReconnectBase: 20 * time.Millisecond, ReconnectCap: 100 * time.Millisecond, ReconnectAttempts: 20,
		ResultRetry: -1, // pin the replay path: no retry timer to the rescue
	})

	results, err := root.RunTimeout(makeTasks(tasks, 512), 60*time.Second)
	if err != nil {
		t.Fatalf("Run across the dropped result: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 {
		t.Fatalf("the scripted faults never fired: %d pending", plan.Pending())
	}
	// The dropped frame was "successfully" written, so its redelivery on
	// the new conn is a replay (the severed frame never made it onto the
	// wire and re-sends as a first transmission).
	if got := w.Stats().ResultsReplayed; got == 0 {
		t.Fatalf("the dropped result was never replayed")
	}
	if got := w.Stats().Reconnects; got == 0 {
		t.Fatalf("worker never reconnected")
	}
}

// TestRoadmapStallRepro pins the exact configuration the ROADMAP stall
// was reproduced under: asymmetric heartbeats (root supervising at
// 100ms, children at the 1s default) with the uplink severed while the
// child is sending — and, after the first reconnect, replaying —
// results. Before the acked ledger, a result frame swallowed by a sever
// window was never requeued (the session kept reviving, so grace expiry
// never fired) and Run hung forever.
func TestRoadmapStallRepro(t *testing.T) {
	const tasks = 40
	plan := NewFaultPlan(
		FaultRule{Link: "parent", Dir: FaultSend, Kind: FrameResult, After: 3, Op: FaultSever},
		FaultRule{Link: "parent", Dir: FaultSend, Kind: FrameResult, After: 6, Op: FaultSever},
	)
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute:           echoCompute(15 * time.Millisecond),
		HeartbeatInterval: 100 * time.Millisecond, // the ROADMAP repro's aggressive root
		// The first result's ack is lost, so the ledger holds a written,
		// unacked result when the first sever lands and the reconnect has
		// something to replay whatever the timing of the other acks.
		Faults: NewFaultPlan(FaultRule{Link: "w", Dir: FaultSend, Kind: FrameResultAck, Op: FaultDrop}),
	})
	w := startNode(t, Config{
		Name: "w", Parent: root.Addr(), Buffers: 3,
		Compute: echoCompute(5 * time.Millisecond),
		// HeartbeatInterval left zero: the 1s default, per the repro.
		Faults:        plan,
		ReconnectBase: 20 * time.Millisecond, ReconnectCap: 100 * time.Millisecond, ReconnectAttempts: 20,
	})

	results, err := root.RunTimeout(makeTasks(tasks, 256), 60*time.Second)
	if err != nil {
		t.Fatalf("Run across the sever-while-replaying window: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 {
		t.Fatalf("the scripted severs never fired: %d pending", plan.Pending())
	}
	ws := w.Stats()
	if ws.Reconnects == 0 {
		t.Fatalf("worker never reconnected")
	}
	if ws.ResultsReplayed == 0 {
		t.Fatalf("no results replayed across the severs: %+v", ws)
	}
}

// TestResultRetryRecoversPureDrop: a result frame lost on a link that
// stays up (no sever, so no reconnect replay) must be retransmitted by
// the retry timer. Before the ledger this was an unconditional hang.
func TestResultRetryRecoversPureDrop(t *testing.T) {
	const tasks = 20
	plan := NewFaultPlan(FaultRule{
		Link: "parent", Dir: FaultSend, Kind: FrameResult, After: 3, Op: FaultDrop,
	})
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute: echoCompute(10 * time.Millisecond),
	})
	w := startNode(t, Config{
		Name: "w", Parent: root.Addr(), Buffers: 3,
		Compute:     echoCompute(2 * time.Millisecond),
		Faults:      plan,
		ResultRetry: 50 * time.Millisecond,
	})

	results, err := root.RunTimeout(makeTasks(tasks, 256), 60*time.Second)
	if err != nil {
		t.Fatalf("Run across the dropped result: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 {
		t.Fatalf("the scripted drop never fired")
	}
	// The retransmission is usually the Run's last result, and the flusher
	// counts a replay only after writing it: Run can return first.
	waitFor(t, "the dropped result's retransmission to be counted", func() bool {
		return w.Stats().ResultsReplayed > 0
	})
	if got := w.Stats().Reconnects; got != 0 {
		t.Fatalf("retry path must not need a reconnect, saw %d", got)
	}
}

// TestResultAcksRetireLedger: on a healthy link every delivered result
// is acked and the ledger drains to empty — and a clean run dedupes
// nothing.
func TestResultAcksRetireLedger(t *testing.T) {
	const tasks = 20
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 2,
		Compute: echoCompute(5 * time.Millisecond),
	})
	w := startNode(t, Config{
		Name: "w", Parent: root.Addr(), Buffers: 2,
		Compute: echoCompute(time.Millisecond),
	})
	results, err := root.RunTimeout(makeTasks(tasks, 128), 30*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)

	// Acks race Run's completion; the ledger must drain shortly after.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		left := len(w.unacked)
		w.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger never drained: %d entries unacked", left)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ws := w.Stats()
	if ws.ResultAcks != ws.Computed || ws.Computed == 0 {
		t.Fatalf("ResultAcks = %d, want one per computed task (%d)", ws.ResultAcks, ws.Computed)
	}
	if got := root.Stats().ResultsDeduped; got != 0 {
		t.Fatalf("clean run deduped %d results", got)
	}
}

// TestReviveReconciliationRequeues drives a scripted child over raw gob:
// it takes one task end to end (final chunk acked, so the root holds it
// outstanding), dies without computing it, and revives within the grace
// window holding nothing. The root must requeue the task at revive time
// — the hello covers nothing — and account it in both Requeued and
// RequeuedOnRevive exactly once, with no later grace-expiry double
// count.
func TestReviveReconciliationRequeues(t *testing.T) {
	const tasks = 8
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute:           echoCompute(25 * time.Millisecond),
		HeartbeatInterval: -1, // the scripted child sends no heartbeats
	})

	type taken struct {
		id  uint64
		err error
	}
	tookc := make(chan taken, 1)
	go func() {
		raw, err := net.Dial("tcp", root.Addr())
		if err != nil {
			tookc <- taken{err: err}
			return
		}
		defer raw.Close()
		enc, dec := gob.NewEncoder(raw), gob.NewDecoder(raw)
		if err := enc.Encode(&message{Kind: kindHello, Name: "fake"}); err != nil {
			tookc <- taken{err: err}
			return
		}
		var ack message
		if err := dec.Decode(&ack); err != nil {
			tookc <- taken{err: err}
			return
		}
		if err := enc.Encode(&message{Kind: kindRequest, N: 1}); err != nil {
			tookc <- taken{err: err}
			return
		}
		for {
			var m message
			if err := dec.Decode(&m); err != nil {
				tookc <- taken{err: err}
				return
			}
			if m.Kind != kindChunk {
				continue
			}
			if err := enc.Encode(&message{Kind: kindChunkAck, Task: m.Task, Offset: m.Offset + len(m.Data), Last: m.Last}); err != nil {
				tookc <- taken{err: err}
				return
			}
			if m.Last {
				tookc <- taken{id: m.Task}
				return // the deferred close severs the link with the task swallowed
			}
		}
	}()

	resc := make(chan []Result, 1)
	errc := make(chan error, 1)
	go func() {
		results, err := root.RunTimeout(makeTasks(tasks, 128), 60*time.Second)
		resc <- results
		errc <- err
	}()

	took := <-tookc
	if took.err != nil {
		t.Fatalf("scripted child: %v", took.err)
	}

	// Wait for the root to notice the dead link, so the reconnect below
	// revives the session instead of opening a second one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		root.mu.Lock()
		gone := false
		for _, s := range root.children {
			if s.name == "fake" && s.gone {
				gone = true
			}
		}
		root.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("root never marked the scripted child gone")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Revive with an empty hello: no Resume, no Holding — the swallowed
	// task is accounted nowhere and must be requeued right now.
	raw2, err := net.Dial("tcp", root.Addr())
	if err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	defer raw2.Close()
	enc2, dec2 := gob.NewEncoder(raw2), gob.NewDecoder(raw2)
	if err := enc2.Encode(&message{Kind: kindHello, Name: "fake"}); err != nil {
		t.Fatalf("revive hello: %v", err)
	}
	var ack2 message
	if err := dec2.Decode(&ack2); err != nil {
		t.Fatalf("revive hello ack: %v", err)
	}
	if !ack2.Revived {
		t.Fatalf("session was not revived")
	}
	go func() { // drain so the root's writes never block
		for {
			var m message
			if dec2.Decode(&m) != nil {
				return
			}
		}
	}()

	results := <-resc
	if err := <-errc; err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)

	s := root.Stats()
	if s.RequeuedOnRevive != 1 {
		t.Fatalf("RequeuedOnRevive = %d, want 1 (the swallowed task %d)", s.RequeuedOnRevive, took.id)
	}
	if s.Requeued != 1 {
		t.Fatalf("Requeued = %d, want 1 — revive-time reconciliation must not double-count with grace expiry", s.Requeued)
	}
}

// TestResultLedgerOrderAndRetire unit-tests the ledger scheduler: after
// a reconnect, entries written to the old conn and entries queued while
// disconnected are sent strictly in arrival order (the old flush used to
// re-append an unflushed tail AFTER concurrently queued results,
// breaking FIFO), and acks retire exactly the keyed entry.
func TestResultLedgerOrderAndRetire(t *testing.T) {
	n := &Node{}
	oldC, newC := &conn{}, &conn{}
	n.parent = newC
	mk := func(id uint64, sent *conn) *resultEntry {
		e := &resultEntry{res: Result{ID: id, Origin: "w"}, sentOn: sent}
		if sent != nil {
			e.sentAt = time.Now()
		}
		return e
	}
	// Arrival order: 1 (sent on the old link), 2 (queued while down),
	// 3 (sent on the old link) — a replay interleaved with fresh sends.
	n.unacked = []*resultEntry{mk(1, oldC), mk(2, nil), mk(3, oldC)}

	batch, c, replays := n.dueResultBatch()
	if c != newC {
		t.Fatalf("batch scheduled on the wrong conn")
	}
	wantOrder := []uint64{1, 2, 3}
	if len(batch) != len(wantOrder) {
		t.Fatalf("batch holds %d entries, want %d", len(batch), len(wantOrder))
	}
	for i, want := range wantOrder {
		if batch[i].res.ID != want {
			t.Fatalf("step %d: scheduled task %d, want %d", i, batch[i].res.ID, want)
		}
	}
	if replays != 2 {
		t.Fatalf("replays = %d, want 2 (entries written to the old conn)", replays)
	}
	for _, e := range batch {
		e.sentOn = newC
		e.sentAt = time.Now()
	}
	if again, _, _ := n.dueResultBatch(); len(again) != 0 {
		t.Fatalf("entry %d scheduled with everything sent and retry disabled", again[0].res.ID)
	}

	n.retireResultLocked(2, "x") // wrong origin: not our entry
	if len(n.unacked) != 3 {
		t.Fatalf("mismatched origin retired an entry")
	}
	n.retireResultLocked(2, "w")
	if len(n.unacked) != 2 || n.stats.ResultAcks != 1 {
		t.Fatalf("ack did not retire the keyed entry: %d left, %d acks", len(n.unacked), n.stats.ResultAcks)
	}
	for _, e := range n.unacked {
		if e.res.ID == 2 {
			t.Fatalf("retired entry still in the ledger")
		}
	}
}

// TestMidStreamReconnectSwitchesCodec covers a codec downgrade across a
// reconnect: a scripted child handshakes binary, takes one task and
// returns its result entirely over binary frames, then dies before the
// result ack arrives. It revives inside the grace window with a
// gob-only hello (no Codecs field — an old build after a rollback) that
// still claims the task, and replays the unacked result over gob. The
// root must serve each connection in its own negotiated codec, dedupe
// the replay, and still ack it so the child's ledger can retire —
// exactly-once end to end.
func TestMidStreamReconnectSwitchesCodec(t *testing.T) {
	const tasks = 6
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute:           echoCompute(15 * time.Millisecond),
		HeartbeatInterval: -1, // the scripted child sends no heartbeats
	})

	type legOne struct {
		id      uint64
		payload []byte
		err     error
	}
	leg1c := make(chan legOne, 1)
	go func() {
		fail := func(format string, args ...any) {
			leg1c <- legOne{err: fmt.Errorf(format, args...)}
		}
		raw, err := net.Dial("tcp", root.Addr())
		if err != nil {
			fail("dial: %v", err)
			return
		}
		defer raw.Close()
		// One bufio.Reader shared between the gob handshake and the
		// binary frame reader, exactly as conn does it: gob reads one
		// message at a time off it, so the codec switch happens at a
		// clean frame boundary.
		br := bufio.NewReader(raw)
		enc, dec := gob.NewEncoder(raw), gob.NewDecoder(br)
		if err := enc.Encode(&message{Kind: kindHello, Name: "fake",
			Codecs: codecBytes([]Codec{CodecBinary})}); err != nil {
			fail("hello: %v", err)
			return
		}
		var ack message
		if err := dec.Decode(&ack); err != nil {
			fail("hello ack: %v", err)
			return
		}
		if len(ack.Codecs) != 1 || Codec(ack.Codecs[0]) != CodecBinary {
			fail("first hello-ack pinned codecs %v, want [binary]", ack.Codecs)
			return
		}

		// Binary from here on, both directions.
		var in interner
		writeBin := func(m *message) error {
			buf, err := appendFrame(nil, m)
			if err != nil {
				return err
			}
			_, err = raw.Write(buf)
			return err
		}
		readBin := func() (*message, error) {
			body, err := readFrame(br, nil)
			if err != nil {
				return nil, err
			}
			m := new(message)
			if err := decodeFrame(body, m, &in); err != nil {
				return nil, err
			}
			return m, nil
		}
		if err := writeBin(&message{Kind: kindRequest, N: 1}); err != nil {
			fail("request: %v", err)
			return
		}
		var id uint64
		var payload []byte
		for {
			m, err := readBin()
			if err != nil {
				fail("read chunk: %v", err)
				return
			}
			if m.Kind != kindChunk {
				continue
			}
			payload = append(payload, m.Data...)
			if err := writeBin(&message{Kind: kindChunkAck, Task: m.Task,
				Offset: m.Offset + len(m.Data), Last: m.Last}); err != nil {
				fail("chunk ack: %v", err)
				return
			}
			if m.Last {
				id = m.Task
				break
			}
		}
		// Return the result over the binary stream and die without
		// waiting for the ack: the result stays unacked on the (fake)
		// ledger and must be replayed after the revive.
		if err := writeBin(&message{Kind: kindResult, Task: id, Origin: "fake",
			Output: payload}); err != nil {
			fail("result: %v", err)
			return
		}
		leg1c <- legOne{id: id, payload: payload}
	}()

	resc := make(chan []Result, 1)
	errc := make(chan error, 1)
	go func() {
		results, err := root.RunTimeout(makeTasks(tasks, 2048), 60*time.Second)
		resc <- results
		errc <- err
	}()

	leg1 := <-leg1c
	if leg1.err != nil {
		t.Fatalf("scripted child, binary leg: %v", leg1.err)
	}

	// Wait for the root to notice the dead link so the second dial
	// revives the session rather than opening a parallel one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		root.mu.Lock()
		gone := false
		for _, s := range root.children {
			if s.name == "fake" && s.gone {
				gone = true
			}
		}
		root.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("root never marked the scripted child gone")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Revive speaking plain gob: the hello carries no Codecs, so the
	// parent must drop this link to the gob floor even though the same
	// session ran binary a moment ago.
	raw2, err := net.Dial("tcp", root.Addr())
	if err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	defer raw2.Close()
	enc2, dec2 := gob.NewEncoder(raw2), gob.NewDecoder(raw2)
	if err := enc2.Encode(&message{Kind: kindHello, Name: "fake",
		Holding: []uint64{leg1.id}}); err != nil {
		t.Fatalf("revive hello: %v", err)
	}
	var ack2 message
	if err := dec2.Decode(&ack2); err != nil {
		t.Fatalf("revive hello ack: %v", err)
	}
	if !ack2.Revived {
		t.Fatalf("session was not revived")
	}
	if len(ack2.Codecs) != 0 {
		t.Fatalf("gob-only revive got codec pick %v, want none (gob floor)", ack2.Codecs)
	}
	// Replay the unacked result over gob; the root already relayed it
	// from the binary leg, so this must dedupe — and still be acked.
	if err := enc2.Encode(&message{Kind: kindResult, Task: leg1.id, Origin: "fake",
		Output: leg1.payload}); err != nil {
		t.Fatalf("replay result: %v", err)
	}
	ackDeadline := time.After(10 * time.Second)
	got := make(chan message, 1)
	go func() {
		for {
			var m message
			if dec2.Decode(&m) != nil {
				return
			}
			if m.Kind == kindResultAck && m.Task == leg1.id {
				select {
				case got <- m:
				default:
				}
			}
		}
	}()
	select {
	case <-got:
	case <-ackDeadline:
		t.Fatalf("replayed result never acked over the gob leg")
	}

	results := <-resc
	if err := <-errc; err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if s := root.Stats(); s.ResultsDeduped < 1 {
		t.Fatalf("ResultsDeduped = %d, want >= 1 (the gob replay of task %d)", s.ResultsDeduped, leg1.id)
	}
}

// TestHelloAckDropRecovers injects a dropped hello-ack into a real
// worker's reconnect: a scripted sever cuts the link mid-run, and the
// first reconnect attempt's hello-ack is swallowed so the handshake
// times out and the backoff loop must try again. The run must still
// finish exactly-once, with the handshake timeout (not the 10s frame
// write timeout) bounding the stall.
func TestHelloAckDropRecovers(t *testing.T) {
	const tasks = 24
	plan := NewFaultPlan(
		// Sever on the second chunk received, forcing a reconnect with a
		// transfer mid-flight.
		FaultRule{Link: "parent", Dir: FaultRecv, Kind: FrameChunk, After: 2, Op: FaultSever},
		// Swallow the reconnect's hello-ack (ack #1 was the initial
		// connect): the handshake must time out and retry.
		FaultRule{Link: "parent", Dir: FaultRecv, Kind: FrameHelloAck, After: 2, Op: FaultDrop},
	)
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute: echoCompute(20 * time.Millisecond),
	})
	w := startNode(t, Config{
		Name: "w", Parent: root.Addr(), Buffers: 3,
		Compute:           echoCompute(2 * time.Millisecond),
		Faults:            plan,
		HandshakeTimeout:  300 * time.Millisecond,
		ReconnectBase:     20 * time.Millisecond,
		ReconnectCap:      200 * time.Millisecond,
		ReconnectAttempts: 8,
	})

	results, err := root.RunTimeout(makeTasks(tasks, 2048), 60*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if got := plan.Pending(); got != 0 {
		t.Fatalf("fault plan has %d rules pending, want 0 (sever + ack drop must both fire)", got)
	}
	if s := w.Stats(); s.Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", s.Reconnects)
	}
}
