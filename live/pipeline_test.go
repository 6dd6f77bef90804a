package live

// Tests for the pipelined send port: hand-off at the final write, turns
// that serve every pending request of a child, the revive cases that
// hand-off adds, and the emulated link's pacing schedule.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"bwcs/internal/protocol"
)

// rootGate keeps a root's compute port from competing with its children:
// the root blocks on the one task it takes until the workers have
// computed the rest of the Run, so every transfer the test reasons about
// goes down a link.
type rootGate struct {
	mu   sync.Mutex
	left int
	ch   chan struct{}
}

// arm readies the gate for a Run of n tasks.
func (g *rootGate) arm(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.left, g.ch = n-1, make(chan struct{})
}

func (g *rootGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left > 0 {
		g.left = 0
		close(g.ch)
	}
}

func (g *rootGate) root(t Task) ([]byte, error) {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	<-ch
	return t.Payload, nil
}

func (g *rootGate) worker(t Task) ([]byte, error) {
	g.mu.Lock()
	if g.left--; g.left == 0 {
		close(g.ch)
	}
	g.mu.Unlock()
	return t.Payload, nil
}

// startGatedRoot starts a root whose compute is g.root; the gate is
// opened before the node closes, whatever the test's outcome.
func startGatedRoot(t *testing.T, g *rootGate, opts ...Option) *Node {
	t.Helper()
	n := startNode(t, "root", append(opts, WithListen("127.0.0.1:0"), WithCompute(g.root))...)
	t.Cleanup(g.open) // runs before startNode's Close, which waits on the compute port
	return n
}

// query runs fn while n's owner is parked (pause) and reports whether it
// was; fn may read the owner's state. A node built without goroutines
// (newNode) has no shell to park, so fn runs at once.
func (n *Node) query(fn func()) bool {
	if n.inbox == nil {
		fn()
		return true
	}
	resume, parked := n.pause()
	if parked {
		fn()
	}
	resume()
	return parked
}

// checkOneOwner asks each node's owner, the way Stats does, to walk its
// dispatch state: a task has exactly one owner — the pool, one session's
// active transfer, or one session's outstanding set — and the reconnect
// hello lists each ID once; an abandoned Run's task is marked only while
// it is in flight, held but not pooled; every task the Run in flight
// still owes is held and not abandoned, and it has collected the rest of
// its tasks. The protocol core agrees: it
// counts the pool, and each session's slot is in place, in flight exactly
// while the session has an active transfer, and down exactly while it
// cannot be served.
func checkOneOwner(t *testing.T, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		checkNodeOwner(t, n)
	}
}

func checkNodeOwner(t *testing.T, n *Node) {
	t.Helper()
	var errs []string
	ran := n.query(func() {
		owner := map[uint64]string{}
		own := func(id uint64, who string) {
			if prev, dup := owner[id]; dup {
				errs = append(errs, fmt.Sprintf("%s: task %d owned twice: %s and %s", n.cfg.name, id, prev, who))
			}
			owner[id] = who
		}
		n.buffer.each(func(tk Task) { own(tk.ID, "pool") })
		if n.core.Occupied != int64(n.buffer.len()) {
			errs = append(errs, fmt.Sprintf("%s: the core counts %d tasks, the pool holds %d", n.cfg.name, n.core.Occupied, n.buffer.len()))
		}
		for i, s := range n.children {
			if sl := n.core.Slots[i]; s.slot != i || sl.Child != s.id || sl.Inflight != (s.active != nil) || sl.Down != (s.gone || s.admitting) {
				errs = append(errs, fmt.Sprintf("%s: child %s at %d has slot %d %+v (active %v, gone %v, admitting %v)",
					n.cfg.name, s.name, i, s.slot, sl, s.active != nil, s.gone, s.admitting))
			}
		}
		for _, s := range n.children {
			if s.active != nil {
				own(s.active.task.ID, s.name+".active")
			}
			for id, tr := range s.outstanding {
				if tr.task.ID != id {
					errs = append(errs, fmt.Sprintf("%s: outstanding[%d] holds task %d", n.cfg.name, id, tr.task.ID))
				}
				own(id, s.name+".outstanding")
			}
		}
		ids := n.holding()
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				errs = append(errs, fmt.Sprintf("%s: hello would list task %d twice", n.cfg.name, ids[i]))
			}
		}
		for id := range n.abandoned {
			if _, held := slices.BinarySearch(ids, id); !held || owner[id] == "pool" {
				errs = append(errs, fmt.Sprintf("%s: abandoned task %d is pooled or held nowhere", n.cfg.name, id))
			}
		}
		if run := n.running; run != nil {
			owed := 0
			for id, o := range run.owed {
				if !o {
					continue
				}
				owed++
				if _, held := slices.BinarySearch(ids, id); !held || n.abandoned[id] {
					errs = append(errs, fmt.Sprintf("%s: task %d the Run owes is held nowhere or abandoned", n.cfg.name, id))
				}
			}
			if len(run.results)+owed != len(run.owed) {
				errs = append(errs, fmt.Sprintf("%s: the Run collected %d and owes %d of %d", n.cfg.name, len(run.results), owed, len(run.owed)))
			}
		}
	})
	if !ran {
		t.Errorf("%s: closed before its owner could be asked", n.cfg.name)
	}
	for _, e := range errs {
		t.Error(e)
	}
}

// watchOneOwner runs checkOneOwner in a tight loop until the returned
// stop function is called.
func watchOneOwner(t *testing.T, n *Node) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				checkOneOwner(t, n)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// sessionPending reports the requests a parent holds registered for a child.
func sessionPending(n *Node, child string) int {
	pending := -1
	n.query(func() {
		for _, s := range n.children {
			if s.name == child && !s.gone {
				pending = int(n.core.Slots[s.slot].Pending)
				break
			}
		}
	})
	return pending
}

// eventsOf filters a node's recorder by kind.
func eventsOf(n *Node, kind EventKind) []Event {
	var out []Event
	for _, e := range n.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// turnNode is an owner's dispatch state with nothing started: one child
// with pending requests, a pool of tasks of the given size, and the send
// port's turn among its effects, so a test can run portTurn and turnDone
// by hand.
func turnNode(pending, tasks, size int, opts ...Option) (*Node, *childSession) {
	cfg := defaults("root")
	for _, opt := range opts {
		opt(&cfg)
	}
	n := &Node{cfg: cfg, root: true}
	n.core.Reset(cfg.protocol, true)
	n.stats.ByChild = map[string]int64{}
	n.buffer.pushAll(makeTasks(tasks, size))
	n.core.Refill(int64(tasks))
	return n, addTurnChild(n, "w", pending)
}

// addTurnChild lists a reachable child with pending requests at a
// turnNode.
func addTurnChild(n *Node, name string, pending int) *childSession {
	s := &childSession{name: name, c: &conn{}, id: n.nextID, slot: len(n.children), outstanding: map[uint64]*outTransfer{}}
	n.nextID++
	n.children = append(n.children, s)
	n.core.Slots = append(n.core.Slots, protocol.Slot{Child: s.id})
	n.core.Request(s.slot, int64(pending), 0)
	n.resort()
	return s
}

// portJob takes the turn portTurn handed the send port off n's effects.
func portJob(n *Node) []portWrite {
	defer func() { n.fx = n.fx[:0] }()
	for _, e := range n.fx {
		if e.kind == effPortTurn {
			return e.writes
		}
	}
	panic("portTurn handed the port no turn")
}

// pendingOf reads the requests child s has pending at n's core.
func pendingOf(n *Node, s *childSession) int { return int(n.core.Slots[s.slot].Pending) }

// TestTurnServesEveryPendingRequest pins the multi-task turn: one write
// carries the owed result acks as one frame, then up to chunkBatch chunks
// to the picked child across as many of its pending requests as fit —
// each transfer that fits handed off before the next is dispatched. Folded
// back in, the write's time is per chunk over all its transfers, a prefix
// that ends in an earlier transfer leaves the last one's offset where it
// was, and a write cut before its first chunk leaves the link estimate
// alone. A LinkDelay keeps turns single-chunk.
func TestTurnServesEveryPendingRequest(t *testing.T) {
	chunks := func(w *portWrite) (tasks []uint64, n int) {
		for _, m := range w.msgs {
			if m.Kind == kindChunk {
				if n++; len(tasks) == 0 || tasks[len(tasks)-1] != m.Task {
					tasks = append(tasks, m.Task)
				}
			}
		}
		return tasks, n
	}
	t.Run("one chunk per task", func(t *testing.T) {
		n, s := turnNode(3, 5, 256)
		s.acks = []resultKey{{Task: 90, Origin: "w"}, {Task: 91, Origin: "x"}}
		n.portTurn()
		turn := portJob(n)
		if len(turn) != 1 || turn[0].msgs[0].Kind != kindResultAck || len(turn[0].msgs[0].Acks) != 2 || turn[0].msgs[1].Kind != kindChunk {
			t.Fatalf("turn %+v: want one write opening with one result-ack frame of two keys", turn)
		}
		if tasks, k := chunks(&turn[0]); k != 3 || len(tasks) != 3 {
			t.Fatalf("the write carries %d chunks of tasks %v, want one each of three tasks", k, tasks)
		}
		if pendingOf(n, s) != 0 || s.active != nil || len(s.outstanding) != 3 || n.buffer.len() != 2 || n.stats.Forwarded != 3 {
			t.Fatalf("after the turn: pending %d, active %v, %d outstanding, %d pooled, %d forwarded; want 0, nil, 3, 2, 3",
				pendingOf(n, s), s.active, len(s.outstanding), n.buffer.len(), n.stats.Forwarded)
		}
	})
	t.Run("budget ends mid-transfer", func(t *testing.T) {
		n, s := turnNode(3, 5, 3*128, WithChunkSize(128))
		n.portTurn()
		w := &portJob(n)[0]
		if tasks, k := chunks(w); k != chunkBatch || len(tasks) != 3 {
			t.Fatalf("the write carries %d chunks of tasks %v, want %d across three tasks", k, tasks, chunkBatch)
		}
		if len(s.outstanding) != 2 || s.active == nil || s.active != w.tr || pendingOf(n, s) != 0 {
			t.Fatalf("%d handed off, active %v (turn's last %v), pending %d; want 2, the third, 0", len(s.outstanding), s.active, w.tr, pendingOf(n, s))
		}
		// The network took five chunks, a prefix that ends in the second
		// transfer: the third has sent nothing, and the write's time is
		// per chunk over all five.
		w.accepted, w.took = 5, 5*time.Millisecond
		n.turnDone(time.Now())
		if s.active.offset != 0 {
			t.Fatalf("offset %d after a prefix that ended in an earlier transfer, want 0", s.active.offset)
		}
		if got := s.link.estimate(); got != 0.001 {
			t.Errorf("estimate %v s after 5 chunks in 5 ms, want 0.001", got)
		}
		// Had it taken one chunk of the third, that one resumes from there.
		w.accepted = 7
		n.turnDone(time.Now())
		if s.active.offset != 128 {
			t.Fatalf("offset %d after the third transfer's first chunk, want 128", s.active.offset)
		}
		// A write cut before its first chunk measured nothing of the link.
		est := s.link.estimate()
		w.accepted, w.took, w.err = 0, time.Second, errFaultSevered
		n.turnDone(time.Now())
		if got := s.link.estimate(); got != est || !s.gone {
			t.Fatalf("a write cut before any chunk: estimate %v → %v, child gone %v", est, got, s.gone)
		}
	})
	t.Run("link delay", func(t *testing.T) {
		n, s := turnNode(3, 5, 256, WithLinkDelay(func(string) time.Duration { return time.Millisecond }))
		n.portTurn()
		if tasks, k := chunks(&portJob(n)[0]); k != 1 || len(tasks) != 1 || pendingOf(n, s) != 2 {
			t.Fatalf("a paced turn carried %d chunks of tasks %v, %d requests left; want one chunk, 2 left", k, tasks, pendingOf(n, s))
		}
	})
}

// flipTurn sets two children's link estimates (seconds), runs one
// single-chunk port turn and folds it back in as fully written; it returns
// the turn's chunk write.
func flipTurn(n *Node, a, b *childSession, ka, kb float64) portWrite {
	a.link, b.link = ewma{value: ka, seen: true}, ewma{value: kb, seen: true}
	n.resort()
	n.portTurn()
	turn := portJob(n)
	for i := range turn {
		turn[i].accepted = len(turn[i].msgs)
	}
	n.turnDone(time.Now())
	return turn[len(turn)-1]
}

// TestSwitchBetweenUnfinishedTransfersInterrupts: with two partial
// transfers on the port, flipping their link estimates moves the port from
// one to the other. That switch is an interruption like any other: one
// more Stats.Interrupts, one chunk-interrupt for the abandoned task, and a
// chunk-resume opening its next segment, whose chunks carry that event as
// their trace context.
func TestSwitchBetweenUnfinishedTransfersInterrupts(t *testing.T) {
	n, a := turnNode(1, 2, 3*128, WithChunkSize(128), WithLinkDelay(func(string) time.Duration { return time.Millisecond }))
	n.rec = newFlightRecorder(256)
	b := addTurnChild(n, "b", 1)
	count := func(kind EventKind, task uint64) (k int, last Event) {
		for _, e := range eventsOf(n, kind) {
			if e.Task == task {
				k, last = k+1, e
			}
		}
		return k, last
	}

	if w := flipTurn(n, a, b, 0.001, 0.002); w.s != a {
		t.Fatalf("first turn served %s, want a", w.s.name)
	}
	if w := flipTurn(n, a, b, 0.003, 0.001); w.s != b || n.stats.Interrupts != 1 {
		t.Fatalf("a fresh request from the faster b: turn served %s, %d interrupts; want b, 1", w.s.name, n.stats.Interrupts)
	}
	taskA, taskB := a.active.task.ID, b.active.task.ID
	// Both transfers are partial; a is faster again.
	if w := flipTurn(n, a, b, 0.001, 0.003); w.s != a || n.stats.Interrupts != 2 {
		t.Fatalf("a switch back to a's transfer: turn served %s, %d interrupts; want a, 2", w.s.name, n.stats.Interrupts)
	}
	if k, _ := count(EvChunkInterrupt, taskB); k != 1 {
		t.Fatalf("%d chunk-interrupts for b's abandoned task, want 1", k)
	}
	w := flipTurn(n, a, b, 0.003, 0.001)
	k, resume := count(EvChunkResume, taskB)
	if w.s != b || k != 1 || n.stats.Interrupts != 3 {
		t.Fatalf("back to b: turn served %s, %d resumes of its task, %d interrupts; want b, 1, 3", w.s.name, k, n.stats.Interrupts)
	}
	for _, m := range w.msgs {
		if m.Kind == kindChunk && (m.Task != taskB || m.TraceSeq != resume.Seq) {
			t.Fatalf("b's resumed chunk: task %d, trace %d; want task %d, trace %d (the resume)", m.Task, m.TraceSeq, taskB, resume.Seq)
		}
	}
	if k, _ := count(EvChunkResume, taskA); k != 1 {
		t.Fatalf("%d chunk-resumes of a's task, want 1", k)
	}
}

// TestTurnTieKeepsSendInFlight pins the tie rule: unmeasured links read
// estimate 0, so a fresh child's request can tie the transfer on the port.
// On an exact tie the send in flight keeps the port (the core preempts
// only for strictly higher priority), whatever the names; between waiting
// children the name decides.
func TestTurnTieKeepsSendInFlight(t *testing.T) {
	n, b := turnNode(1, 2, 3*128, WithChunkSize(128), WithLinkDelay(func(string) time.Duration { return time.Millisecond }))
	b.name = "b"
	a := addTurnChild(n, "a", 0)
	if w := flipTurn(n, a, b, 0, 0); w.s != b {
		t.Fatalf("first turn served %s, want b, the only child with a request", w.s.name)
	}
	n.core.Request(a.slot, 1, 0)
	if w := flipTurn(n, a, b, 0, 0); w.s != b || n.stats.Interrupts != 0 || pendingOf(n, a) != 1 {
		t.Fatalf("a tie with the transfer in flight: turn served %s, %d interrupts, a's requests %d; want b, 0, 1",
			w.s.name, n.stats.Interrupts, pendingOf(n, a))
	}
	// Idle, the port serves the tied children in name order.
	n2, z := turnNode(1, 2, 64)
	z.name = "z"
	y := addTurnChild(n2, "y", 1)
	if w := flipTurn(n2, y, z, 0, 0); w.s != y {
		t.Fatalf("an idle port served %s first, want y", w.s.name)
	}
}

// TestFailedTurnLeavesEstimate severs the root's first chunk write to a
// fresh worker before any chunk is accepted: the failed write measured
// nothing of the link, so once the worker is back its first dispatch sees
// the estimate the failed turn's dispatch saw. (Folding the failed write's
// duration in — up to a write timeout — would deprioritise the revived
// child.)
func TestFailedTurnLeavesEstimate(t *testing.T) {
	const tasks = 30
	g := &rootGate{}
	plan := NewFaultPlan(FaultRule{Link: "w", Dir: FaultSend, Kind: FrameChunk, Op: FaultSever})
	root := startGatedRoot(t, g, WithBuffers(3), WithReconnectGrace(10*time.Second), WithFaultPlan(plan))
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3), WithCompute(g.worker),
		WithReconnect(5*time.Millisecond, 20*time.Millisecond, 20),
	)
	g.arm(tasks)
	results, err := runWithin(root, makeTasks(tasks, 256), 30*time.Second)
	checkOneOwner(t, root, w)
	if err != nil {
		t.Fatalf("Run across the sever: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 || w.Stats().Reconnects != 1 {
		t.Fatalf("scripted sever: %d rules pending, %d reconnects", plan.Pending(), w.Stats().Reconnects)
	}
	revive := eventsOf(root, EvRevive)
	if len(revive) != 1 {
		t.Fatalf("root revived the session %d times, want 1", len(revive))
	}
	var before, after *Event
	for _, e := range eventsOf(root, EvChunkSend) {
		switch {
		case e.Seq < revive[0].Seq:
			before = &e
		case after == nil:
			after = &e
		}
	}
	if before == nil || after == nil {
		t.Fatalf("dispatches around the revive: before %v, after %v", before, after)
	}
	if after.Value != before.Value {
		t.Fatalf("the link estimate went %d ns → %d ns across a write that failed before its first chunk", before.Value, after.Value)
	}
}

// TestResultCannotOutrunHandoff races the fastest possible children
// against the hand-off: zero-cost compute on single-chunk tasks, so a
// result is on its way back microseconds after the chunk was written. The
// task is registered outstanding before that write, so no result may ever
// arrive unexpected and be deduped.
func TestResultCannotOutrunHandoff(t *testing.T) {
	const tasks = 10_000
	g := &rootGate{}
	root := startGatedRoot(t, g, WithBuffers(3), WithRecorderCapacity(-1))
	for _, name := range []string{"w1", "w2"} {
		startNode(t, name, WithParent(root.Addr()), WithBuffers(3), WithCompute(g.worker), WithRecorderCapacity(-1))
	}
	g.arm(tasks)
	results, err := runWithin(root, makeTasks(tasks, 256), 60*time.Second)
	checkOneOwner(t, root)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if s := root.Stats(); s.ResultsDeduped != 0 || s.Requeued != 0 {
		t.Fatalf("a result outran its hand-off: deduped %d, requeued %d", s.ResultsDeduped, s.Requeued)
	}
}

// TestSeverLosesWrittenTransfers severs a worker's uplink on the receive
// side while two handed-off single-chunk transfers sit written but
// unread. The hello covers only the task that arrived; the other two are
// requeued at revive — once each, with the requests they had consumed, so
// the worker comes back with all FB buffers in play.
func TestSeverLosesWrittenTransfers(t *testing.T) {
	const tasks = 30
	g := &rootGate{}
	root := startGatedRoot(t, g, WithBuffers(3), WithReconnectGrace(10*time.Second))
	// The first chunk stalls in the worker's reader while the root writes
	// the other two transfers its three requests allow; the second read
	// severs the link with both of them lost.
	plan := NewFaultPlan(
		FaultRule{Link: "parent", Dir: FaultRecv, Kind: FrameChunk, Op: FaultDelay, Delay: 50 * time.Millisecond},
		FaultRule{Link: "parent", Dir: FaultRecv, Kind: FrameChunk, Op: FaultSever},
	)
	// The worker holds the one task that did arrive on its compute port
	// until the sever has fired: were its result written first, the ack
	// would die with the link and the replay be deduplicated — correct, but
	// not the case this test pins.
	afterSever := func(tk Task) ([]byte, error) {
		for plan.Pending() > 0 {
			time.Sleep(time.Millisecond)
		}
		return g.worker(tk)
	}
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3), WithCompute(afterSever), WithFaultPlan(plan),
		WithReconnect(10*time.Millisecond, 50*time.Millisecond, 10),
	)

	stop := watchOneOwner(t, root)
	g.arm(tasks)
	results, err := runWithin(root, makeTasks(tasks, 256), 30*time.Second)
	checkOneOwner(t, root, w)
	stop()
	if err != nil {
		t.Fatalf("Run across the sever: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 || w.Stats().Reconnects != 1 {
		t.Fatalf("scripted sever: %d rules pending, %d reconnects", plan.Pending(), w.Stats().Reconnects)
	}

	// Lost is what the root handed off before the revive minus what the
	// worker had received by then.
	revive := eventsOf(root, EvRevive)
	if len(revive) != 1 {
		t.Fatalf("root revived the session %d times, want 1", len(revive))
	}
	reconnect := eventsOf(w, EvReconnect)[0]
	lost := map[uint64]bool{}
	for _, e := range eventsOf(root, EvHandoff) {
		if e.Seq < revive[0].Seq {
			lost[e.Task] = true
		}
	}
	for _, e := range eventsOf(w, EvTaskReceived) {
		if e.Seq < reconnect.Seq {
			delete(lost, e.Task)
		}
	}
	// Two for certain; a third when the worker's request for the task it
	// did receive slipped out ahead of the sever and was served.
	if len(lost) < 2 {
		t.Fatalf("the sever lost %d written transfers, want at least 2", len(lost))
	}
	requeued := map[uint64]int{}
	for _, e := range eventsOf(root, EvRequeue) {
		requeued[e.Task]++
	}
	for id := range lost {
		if requeued[id] != 1 {
			t.Errorf("lost task %d requeued %d times, want once", id, requeued[id])
		}
	}
	s, want := root.Stats(), int64(len(lost))
	if s.Requeued != want || s.RequeuedOnRevive != want || s.ResultsDeduped != 0 {
		t.Fatalf("requeued %d (%d on revive), deduped %d; want %d, %d, 0", s.Requeued, s.RequeuedOnRevive, s.ResultsDeduped, want, want)
	}
	// The lost transfers' requests came back with them: idle again, the
	// worker has one request registered per buffer.
	waitFor(t, "the worker's three requests to be registered again", func() bool {
		return sessionPending(root, "w") == 3
	})
}

// TestSeverResumesHandedOffTransfer severs a worker's uplink inside the
// final port turn of a multi-chunk transfer — already handed off — while
// the next transfer to the same worker is on the port. The older one goes
// back to the port and resumes from the offset the hello offers; the
// younger one, none of which can have arrived, returns to the pool with
// its request and is dispatched again.
func TestSeverResumesHandedOffTransfer(t *testing.T) {
	const (
		tasks  = 6
		chunk  = 128
		chunks = 32
	)
	g := &rootGate{}
	root := startGatedRoot(t, g,
		WithBuffers(3), WithChunkSize(chunk), WithReconnectGrace(10*time.Second),
		// Paced, so the port takes single-chunk turns and the younger
		// transfer is still mid-payload when the sever lands.
		WithLinkDelay(func(string) time.Duration { return time.Millisecond }),
	)
	// The worker's reader stalls on the chunk before the first task's
	// last, long enough for the root to write that last chunk (handing the
	// task off) and start on the second task; reading the last chunk then
	// severs the link.
	plan := NewFaultPlan(
		FaultRule{Link: "parent", Dir: FaultRecv, Kind: FrameChunk, After: chunks - 1, Op: FaultDelay, Delay: 10 * time.Millisecond},
		FaultRule{Link: "parent", Dir: FaultRecv, Kind: FrameChunk, After: chunks - 1, Op: FaultSever},
	)
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(3), WithChunkSize(chunk), WithCompute(g.worker), WithFaultPlan(plan),
		WithReconnect(10*time.Millisecond, 50*time.Millisecond, 10),
	)

	stop := watchOneOwner(t, root)
	g.arm(tasks)
	results, err := runWithin(root, makeTasks(tasks, chunk*chunks), 30*time.Second)
	checkOneOwner(t, root, w)
	stop()
	if err != nil {
		t.Fatalf("Run across the sever: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 || w.Stats().Reconnects != 1 {
		t.Fatalf("scripted sever: %d rules pending, %d reconnects", plan.Pending(), w.Stats().Reconnects)
	}

	revive := eventsOf(root, EvRevive)
	if len(revive) != 1 {
		t.Fatalf("root revived the session %d times, want 1", len(revive))
	}
	var older, younger uint64
	for _, e := range root.Events() {
		if e.Seq > revive[0].Seq {
			break
		}
		switch e.Kind {
		case EvHandoff:
			older = e.Task
		case EvChunkSend:
			younger = e.Task
		}
	}
	if older == 0 || younger == older {
		t.Fatalf("at the revive: handed off task %d, on the port task %d; want two transfers", older, younger)
	}

	s := root.Stats()
	if s.Resumed != 1 || s.Requeued != 1 || s.ResultsDeduped != 0 {
		t.Fatalf("resumed %d, requeued %d, deduped %d; want 1, 1, 0", s.Resumed, s.Requeued, s.ResultsDeduped)
	}
	// The older transfer resumed exactly where the worker's copy ended:
	// no byte before the offered offset crossed the link again.
	const offset = (chunks - 1) * chunk
	for _, e := range eventsOf(root, EvChunkResume) {
		if e.Seq > revive[0].Seq && (e.Task != older || e.Off != offset) {
			t.Errorf("after the revive the root resumed task %d at %d, want task %d at %d", e.Task, e.Off, older, offset)
		}
	}
	reconnect := eventsOf(w, EvReconnect)[0]
	for _, e := range eventsOf(w, EvChunkRecv) {
		if e.Seq > reconnect.Seq && e.Task == older && e.Off != offset {
			t.Errorf("worker received task %d again from offset %d, want %d", older, e.Off, offset)
		}
	}
	// The younger went back to the pool once and out again.
	var requeues, sends int
	for _, e := range root.Events() {
		if e.Task == younger && e.Kind == EvRequeue {
			requeues++
		}
		if e.Task == younger && e.Kind == EvChunkSend {
			sends++
		}
	}
	if requeues != 1 || sends != 2 {
		t.Fatalf("younger task %d: requeued %d times, dispatched %d times; want 1 and 2", younger, requeues, sends)
	}
	waitFor(t, "the worker's three requests to be registered again", func() bool {
		return sessionPending(root, "w") == 3
	})
}

// pacedRun runs n tasks of the given size through a gated root, with task
// IDs from base+1, and reads the Run's transfers off the root's recorder:
// how many went down a link, and the time from the first dispatch to the
// last result back from a child, both on the root's clock.
func pacedRun(t *testing.T, root *Node, g *rootGate, base uint64, n, size int) (transfers int, took time.Duration) {
	t.Helper()
	tasks := makeTasks(n, size)
	for i := range tasks {
		tasks[i].ID += base
	}
	g.arm(n)
	if _, err := runWithin(root, tasks, 30*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkOneOwner(t, root)
	var first, last int64
	for _, e := range root.Events() {
		if e.Task <= base {
			continue
		}
		switch e.Kind {
		case EvChunkSend:
			if transfers++; transfers == 1 {
				first = e.At
			}
		case EvResultRecv:
			last = e.At
		}
	}
	return transfers, time.Duration(last - first)
}

// assertPaced runs the same paced Run up to three times. The hard bound
// holds on every attempt: the transfers never beat their links' time. The
// loose one — within 10 % of it, because lateness is paid once and not per
// chunk — must hold on one: a drifting pacer misses it every time, a
// hiccup of the host does not repeat.
func assertPaced(t *testing.T, root *Node, g *rootGate, n, size, wantTransfers int, linkTime time.Duration) {
	t.Helper()
	var took time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		var transfers int
		transfers, took = pacedRun(t, root, g, uint64(attempt*n), n, size)
		if transfers != wantTransfers {
			t.Fatalf("%d transfers went down the links, want %d", transfers, wantTransfers)
		}
		if took < linkTime {
			t.Fatalf("%v of link time took %v: the link was beaten", linkTime, took)
		}
		if took <= linkTime*11/10 {
			return
		}
	}
	t.Errorf("%v of link time took %v, want under %v: lateness is accumulating", linkTime, took, linkTime*11/10)
}

// TestLinkPacingBackToBack sends one 40-chunk transfer down a 2 ms link:
// at least 80 ms, and at most 88. A sleep per chunk (the parent of this
// change) runs every chunk one overshoot and one write slow and lands near
// 40·(d + 0.4 ms) = 96 ms.
func TestLinkPacingBackToBack(t *testing.T) {
	const (
		k = 40
		d = 2 * time.Millisecond
	)
	g := &rootGate{}
	root := startGatedRoot(t, g,
		WithBuffers(1), WithChunkSize(128),
		WithLinkDelay(func(string) time.Duration { return d }),
	)
	startNode(t, "w", WithParent(root.Addr()), WithBuffers(1), WithChunkSize(128), WithCompute(g.worker))
	assertPaced(t, root, g, 2, k*128, 1, k*d)
}

// TestLinkPacingIdleIsNotCredit lets the port sit idle for three chunk
// times between two single-chunk transfers: the second still pays its
// full delay.
func TestLinkPacingIdleIsNotCredit(t *testing.T) {
	const d = 20 * time.Millisecond
	g := &rootGate{}
	root := startGatedRoot(t, g,
		WithBuffers(1),
		WithLinkDelay(func(string) time.Duration { return d }),
	)
	startNode(t, "w", WithParent(root.Addr()), WithBuffers(1), WithCompute(g.worker))

	for run := uint64(0); run < 2; run++ {
		transfers, took := pacedRun(t, root, g, 2*run, 2, 256)
		if transfers != 1 || took < d {
			t.Errorf("run %d: %d transfers crossed a %v link in %v, want 1 in at least %v", run, transfers, d, took, d)
		}
		time.Sleep(3 * d)
	}
}

// TestLinkPacingSharedSchedule gives two children different delays and
// one transfer each at the same time. The port is serial, so the two
// links share one schedule: the pair takes the sum of both transfers'
// link time, never less, however the port interleaves them.
func TestLinkPacingSharedSchedule(t *testing.T) {
	const k = 10
	delays := map[string]time.Duration{"a": 2 * time.Millisecond, "b": 3 * time.Millisecond}
	g := &rootGate{}
	root := startGatedRoot(t, g,
		WithBuffers(1), WithChunkSize(128),
		WithLinkDelay(func(child string) time.Duration { return delays[child] }),
	)
	for name := range delays {
		startNode(t, name, WithParent(root.Addr()), WithBuffers(1), WithChunkSize(128), WithCompute(g.worker))
	}
	waitFor(t, "both children to register a request", func() bool {
		return sessionPending(root, "a") == 1 && sessionPending(root, "b") == 1
	})
	assertPaced(t, root, g, 3, k*128, 2, k*(delays["a"]+delays["b"]))
}
