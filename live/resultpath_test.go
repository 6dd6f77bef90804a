package live

// Tests for exactly-once result delivery: the unacked-result ledger and
// its ack-retire/replay/retry machinery, parent-side dedupe, and
// revive-time reconciliation. The headline scenarios pin the ROADMAP
// stall — a result frame lost in a sever window used to hang Run forever
// because the perpetually revived session never hit the grace-expiry
// requeue.

import (
	"slices"
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
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(20*time.Millisecond)),
		WithReconnectGrace(10*time.Second), // the session must revive, not reclaim
	)
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(2*time.Millisecond)),
		WithFaultPlan(plan),
		WithReconnect(20*time.Millisecond, 100*time.Millisecond, 20),
		func(c *config) { c.resultRetry = 0 }, // pin the replay path: no retry timer to the rescue
	)

	results, err := runWithin(root, makeTasks(tasks, 512), 60*time.Second)
	checkOneOwner(t, root, w)
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
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(15*time.Millisecond)),
		WithHeartbeat(100*time.Millisecond, 0), // the ROADMAP repro's aggressive root
		// The first result's ack is lost, so the ledger holds a written,
		// unacked result when the first sever lands and the reconnect has
		// something to replay whatever the timing of the other acks.
		WithFaultPlan(NewFaultPlan(FaultRule{Link: "w", Dir: FaultSend, Kind: FrameResultAck, Op: FaultDrop})),
	)
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(5*time.Millisecond)),
		// No WithHeartbeat: the 1s default, per the repro.
		WithFaultPlan(plan),
		WithReconnect(20*time.Millisecond, 100*time.Millisecond, 20),
	)

	results, err := runWithin(root, makeTasks(tasks, 256), 60*time.Second)
	checkOneOwner(t, root, w)
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
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(10*time.Millisecond)),
	)
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(2*time.Millisecond)),
		WithFaultPlan(plan),
		func(c *config) { c.resultRetry = 50 * time.Millisecond },
	)

	results, err := runWithin(root, makeTasks(tasks, 256), 60*time.Second)
	checkOneOwner(t, root, w)
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
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2),
		WithCompute(echoCompute(5*time.Millisecond)),
	)
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)),
	)
	results, err := runWithin(root, makeTasks(tasks, 128), 30*time.Second)
	checkOneOwner(t, root, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)

	// Acks race Run's completion; the ledger must drain shortly after.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var left int
		w.query(func() { left = len(w.unacked) })
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

// childGone reports whether a node holds a dead, still revivable session
// for the named child.
func childGone(n *Node, name string) bool {
	gone := false
	n.query(func() {
		for _, s := range n.children {
			gone = gone || s.name == name && s.gone
		}
	})
	return gone
}

// TestReviveReconciliationRequeues drives a scripted child: it takes one
// task end to end (handed off, so the root holds it outstanding),
// dies without computing it, and revives within the grace window holding
// nothing. The root must requeue the task at revive time — the hello
// covers nothing — and account it in both Requeued and RequeuedOnRevive
// exactly once, with no later grace-expiry double count.
func TestReviveReconciliationRequeues(t *testing.T) {
	const tasks = 8
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(25*time.Millisecond)),
		WithHeartbeat(-1, 0), // the scripted child sends no heartbeats
	)

	type taken struct {
		id  uint64
		err error
	}
	tookc := make(chan taken, 1)
	go func() {
		p, err := dialScripted(root.Addr())
		if err != nil {
			tookc <- taken{err: err}
			return
		}
		defer p.close() // severs the link with the task swallowed
		if _, err := p.hello(message{Name: "fake"}); err != nil {
			tookc <- taken{err: err}
			return
		}
		id, _, err := p.takeTask()
		tookc <- taken{id: id, err: err}
	}()

	resc := make(chan []Result, 1)
	errc := make(chan error, 1)
	go func() {
		results, err := runWithin(root, makeTasks(tasks, 128), 60*time.Second)
		resc <- results
		errc <- err
	}()

	took := <-tookc
	if took.err != nil {
		t.Fatalf("scripted child: %v", took.err)
	}

	// Wait for the root to notice the dead link, so the reconnect below
	// revives the session instead of opening a second one.
	waitFor(t, "the root to mark the scripted child gone", func() bool { return childGone(root, "fake") })

	// Revive with an empty hello: no Resume, no Holding, no request
	// unanswered — the swallowed task is accounted nowhere and must be
	// requeued right now.
	p2, err := dialScripted(root.Addr())
	if err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	defer p2.close()
	ack2, err := p2.hello(message{Name: "fake"})
	if err != nil {
		t.Fatalf("revive: %v", err)
	}
	if !ack2.Revived {
		t.Fatalf("session was not revived")
	}
	go p2.drain()

	results := <-resc
	checkOneOwner(t, root)
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
	// The hello said no request was unanswered, so the session holds none:
	// the requeued task goes to whoever asks, not back down this link.
	if got := sessionPending(root, "fake"); got != 0 {
		t.Fatalf("revived session holds %d requests, want the hello's 0", got)
	}
}

// TestLedgerDedupesByKey pins a ledger-level duplicate: a result already
// pending in the unacked ledger under the same task ID and origin is
// suppressed and counted, as childFrame counts an unexpected result; the
// same task from another origin is not a duplicate.
func TestLedgerDedupesByKey(t *testing.T) {
	n := newNode(defaults("w"))
	r := Result{ID: 7, Origin: "w1"}
	n.enqueueResult(r)
	n.enqueueResult(r)
	n.enqueueResult(Result{ID: 7, Origin: "w2"})
	if len(n.unacked) != 2 || n.stats.ResultsDeduped != 1 {
		t.Fatalf("ledger holds %d entries, %d deduped; want 2 and 1", len(n.unacked), n.stats.ResultsDeduped)
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

	batch, c, replays := n.dueResultBatch(time.Now())
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
	if again, _, _ := n.dueResultBatch(time.Now()); len(again) != 0 {
		t.Fatalf("entry %d scheduled with everything sent and retry disabled", again[0].res.ID)
	}

	n.retireResult(2, "x") // wrong origin: not our entry
	if len(n.unacked) != 3 {
		t.Fatalf("mismatched origin retired an entry")
	}
	n.retireResult(2, "w")
	if len(n.unacked) != 2 || n.stats.ResultAcks != 1 {
		t.Fatalf("ack did not retire the keyed entry: %d left, %d acks", len(n.unacked), n.stats.ResultAcks)
	}
	for _, e := range n.unacked {
		if e.res.ID == 2 {
			t.Fatalf("retired entry still in the ledger")
		}
	}
}

// TestReviveReplayDedupedAndAcked covers a result in flight across a
// reconnect: a scripted child takes one task and returns its result, then
// dies before the result ack arrives. It revives inside the grace window
// with a hello that still claims the task and replays the unacked result.
// The root must dedupe the replay — it relayed the first copy — and still
// ack it so the child's ledger can retire: exactly-once end to end.
func TestReviveReplayDedupedAndAcked(t *testing.T) {
	const tasks = 6
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(15*time.Millisecond)),
		WithHeartbeat(-1, 0), // the scripted child sends no heartbeats
	)

	type legOne struct {
		id      uint64
		payload []byte
		err     error
	}
	leg1c := make(chan legOne, 1)
	go func() {
		p, err := dialScripted(root.Addr())
		if err != nil {
			leg1c <- legOne{err: err}
			return
		}
		defer p.close()
		if _, err := p.hello(message{Name: "fake"}); err != nil {
			leg1c <- legOne{err: err}
			return
		}
		id, payload, err := p.takeTask()
		if err != nil {
			leg1c <- legOne{err: err}
			return
		}
		// Return the result and die without waiting for the ack: the result
		// stays unacked on the (fake) ledger and must be replayed after the
		// revive.
		err = p.write(&message{Kind: kindResult, Task: id, Origin: "fake", Output: payload})
		leg1c <- legOne{id: id, payload: payload, err: err}
	}()

	resc := make(chan []Result, 1)
	errc := make(chan error, 1)
	go func() {
		results, err := runWithin(root, makeTasks(tasks, 2048), 60*time.Second)
		resc <- results
		errc <- err
	}()

	leg1 := <-leg1c
	if leg1.err != nil {
		t.Fatalf("scripted child, first leg: %v", leg1.err)
	}

	// Wait for the root to notice the dead link so the second dial
	// revives the session rather than opening a parallel one.
	waitFor(t, "the root to mark the scripted child gone", func() bool { return childGone(root, "fake") })

	p2, err := dialScripted(root.Addr())
	if err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	defer p2.close()
	ack2, err := p2.hello(message{Name: "fake", Holding: []uint64{leg1.id}})
	if err != nil {
		t.Fatalf("revive: %v", err)
	}
	if !ack2.Revived {
		t.Fatalf("session was not revived")
	}
	// Replay the unacked result; the root already relayed it from the first
	// leg, so this must dedupe — and still be acked.
	if err := p2.write(&message{Kind: kindResult, Task: leg1.id, Origin: "fake", Output: leg1.payload}); err != nil {
		t.Fatalf("replay result: %v", err)
	}
	got := make(chan struct{})
	go func() {
		for {
			m, err := p2.read()
			if err != nil {
				return
			}
			if m.Kind == kindResultAck && slices.Contains(m.Acks, resultKey{Task: leg1.id, Origin: "fake"}) {
				close(got)
				p2.drain()
				return
			}
		}
	}()
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatalf("replayed result never acked")
	}

	results := <-resc
	checkOneOwner(t, root)
	if err := <-errc; err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if s := root.Stats(); s.ResultsDeduped < 1 {
		t.Fatalf("ResultsDeduped = %d, want >= 1 (the replay of task %d)", s.ResultsDeduped, leg1.id)
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
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(20*time.Millisecond)),
	)
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(2*time.Millisecond)),
		WithFaultPlan(plan),
		func(c *config) { c.handshakeTimeout = 300 * time.Millisecond },
		WithReconnect(20*time.Millisecond, 200*time.Millisecond, 8),
	)

	results, err := runWithin(root, makeTasks(tasks, 2048), 60*time.Second)
	checkOneOwner(t, root, w)
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
