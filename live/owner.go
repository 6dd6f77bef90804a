package live

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"bwcs/internal/protocol"
)

// This file and ownerport.go are the owner's steps (see Node): each takes
// the time and one data input and appends effects for the shell, ownerLoop;
// none does I/O, reads the clock or touches a channel (TestOwnerIsPure).

// inputKind names what an input reports to the owner.
type inputKind uint8

const (
	inChild         inputKind = iota // frame m arrived on child session s's conn c
	inUplink                         // frame m came down the uplink c: a segment's first chunk, a finished task t, a result ack or a shutdown
	inComputed                       // the compute port ran task in took, with output out
	inTurnDone                       // the send port wrote the turn it held
	inPull                           // the uplink writer wrote the batch it held, if any, and asks for the next
	inTimer                          // the timer the owner armed is due
	inChildLost                      // child session s's conn c failed
	inUplinkLost                     // the uplink c failed
	inHeartbeatMiss                  // link c missed its n-th heartbeat in a row; sever: it is cut
	inAdmit                          // hello m arrived on c; reply: the session and its hello-ack
	inAdmitted                       // the hello-ack to session s on c was written, or failed with err
	inHello                          // the dialler's hello m needs the subtree's counts; reply: the hello
	inInstalled                      // hello-ack m came back on c: n partial transfers dropped, attempt numbers a reconnect
	inRun                            // Run hands the root tasks; reply, once: the results, or why it was refused or failed
	inAbandon                        // the Run whose reply slot this is was cut short: if in flight, it replies with the results so far
	inClose                          // Close stops the owner, whose state is then read-only
	inStatus                         // ServeStatus installs status; reply: the server running
	inPause                          // pause: the shell parks between two steps; never reaches step
)

// input is one entry of the owner's inbox. A frame is copied out of its
// reader's decode slot (a chunk without Data), so a reader allocates
// nothing per frame; an input that answers its sender carries a reply slot.
type input struct {
	kind           inputKind
	s              *childSession
	c              *conn
	m              message
	t              *inTransfer // inUplink: the task the chunk completed
	task           Task        // inComputed, with out and took
	out            []byte
	took           time.Duration
	n, attempt     int
	segment, sever bool // inUplink: the chunk opens a transfer segment
	err            error
	tasks          []Task
	status         *statusServer
	reply          chan reply
}

// reply answers an input that carries a reply slot.
type reply struct {
	sess    *childSession // inAdmit: nil once the node is closing
	msg     *message      // inAdmit: the hello-ack; inHello: the completed hello
	status  *statusServer // inStatus
	results []Result      // inRun: collected, in arrival order
	err     error         // inRun
}

// effectKind names what the shell must do for the owner.
type effectKind uint8

const (
	effCompute  effectKind = iota // hand task to the compute port
	effPortTurn                   // hand writes to the send port
	effKick                       // wake the uplink writer
	effBatch                      // answer the writer's pull with job; nil parks it
	effArm                        // arm the timer for d; 0 disarms it
	effReply                      // complete the reply slot to with r
	effServe                      // serve r.status's endpoints
)

// effect is one thing the owner decided that only the shell can do.
type effect struct {
	kind   effectKind
	task   Task
	writes []portWrite
	job    *upJob
	d      time.Duration
	to     chan reply
	r      reply
}

// emit appends e to the effects the shell carries out after the step.
func (n *Node) emit(e effect) { n.fx = append(n.fx, e) }

// step applies one input at time now.
func (n *Node) step(now time.Time, in *input) {
	switch in.kind {
	case inChild:
		n.childFrame(in.s, in.c, &in.m)
	case inUplink:
		n.parentFrame(in)
	case inComputed:
		n.computed(in.task, in.out, in.took)
	case inTurnDone:
		n.turnDone(now)
	case inPull:
		n.pullUplink(now)
	case inTimer:
		// The wake-up is the point: decide reclaims and retransmits what is due.
	case inChildLost:
		n.markChildGone(in.s, in.c, now)
	case inUplinkLost:
		n.parent = nil // outbound work is owed until the link is back
		n.record(Event{Kind: EvSever, Peer: in.c.label()})
	case inHeartbeatMiss:
		n.stats.HeartbeatMisses++
		n.record(Event{Kind: EvHeartbeatMiss, Peer: in.c.label(), Value: int64(in.n)})
		if in.sever {
			n.record(Event{Kind: EvSever, Peer: in.c.label()})
		}
	case inAdmit:
		sess, ack := n.admitChild(in.c, &in.m)
		n.emit(effect{kind: effReply, to: in.reply, r: reply{sess: sess, msg: ack}})
	case inAdmitted:
		if in.s.admitting = false; in.err != nil {
			n.markChildGone(in.s, in.c, now)
		}
		n.reach(in.s)
	case inHello: // the dialler's hello, whose Resume lists the partial transfers it offers
		h := in.m
		h.Holding, h.N = n.holding(), n.unanswered(len(h.Resume))
		n.up.told = true // a batch still on the writer is, from here on, reported as sent
		h.TraceSeq = n.record(Event{Kind: EvHello, Peer: "parent"})
		n.emit(effect{kind: effReply, to: in.reply, r: reply{msg: &h}})
	case inInstalled: // c is the uplink: each of the n partial transfers its hello-ack dropped owes a request
		ev := Event{Kind: EvHelloAck, Peer: in.c.label(), CauseSeq: in.m.TraceSeq}
		if in.m.Revived {
			ev.Value = 1
		}
		n.record(ev)
		n.reqDeficit += in.n
		n.parent = in.c
		if in.attempt > 0 {
			n.stats.Reconnects++
			n.record(Event{Kind: EvReconnect, Peer: in.c.label(), Value: int64(in.attempt)})
		}
		n.emit(effect{kind: effReply, to: in.reply})
	case inRun:
		if err := n.run(in.tasks, in.reply); err != nil {
			n.emit(effect{kind: effReply, to: in.reply, r: reply{err: err}})
		}
	case inAbandon:
		if n.running != nil && n.running.reply == in.reply {
			n.endRun(nil)
		}
	case inClose:
		n.stopped = true
	case inStatus:
		if n.status == nil {
			n.status = in.status
			n.emit(effect{kind: effServe, r: reply{status: in.status}})
		}
		n.emit(effect{kind: effReply, to: in.reply, r: reply{status: n.status}})
	}
}

// decide hands every idle port its next work — the compute port first (the
// node is its own highest-priority consumer), then the send port, then the
// uplink writer, which so carries the requests both just owed — and arms
// the timer for the next grace expiry or retransmission, if any is due.
func (n *Node) decide(now time.Time) {
	if n.stopped {
		return
	}
	wait := n.reclaim(now)
	if take, ok := n.core.Compute(); ok {
		t := n.buffer.pop()
		n.computing = append(n.computing[:0], t.ID) // accounted until the result enters the ledger
		n.freed(take)
		n.record(Event{Kind: EvComputeStart, Task: t.ID})
		n.emit(effect{kind: effCompute, task: t})
	}
	if !n.portBusy {
		n.portTurn()
	}
	if !n.upBusy && n.parent != nil { // the writer pulls its batch (pullUplink) once it runs
		if batch, _, _ := n.dueResultBatch(now); n.reqDeficit+len(batch) > 0 {
			n.upBusy = true
			n.emit(effect{kind: effKick})
		}
	}
	if !n.upBusy {
		if d := n.resultRetryWait(now); d > 0 && (wait == 0 || d < wait) {
			wait = d
		}
	}
	if wait > 0 || n.armed {
		n.armed = wait > 0
		n.emit(effect{kind: effArm, d: wait})
	}
}

// admitChild installs a connection as a fresh child session — or, when
// the hello names a session whose link died within the reconnect grace
// window, revives that session: the handed-off tasks the hello covers
// survive, a transfer cut mid-payload resumes from the offset the hello
// offers, and everything else the child never received returns to the
// pool. Fresh or revived, the session's request count is the hello's: the
// child knows how many of its requests no task has answered; the parent
// cannot tell a request it never read from one it served into a dead link.
// It returns the session, admitting until the accept loop has written the
// hello-ack it also returns; nil while the node is closing.
func (n *Node) admitChild(c *conn, hello *message) (*childSession, *message) {
	if n.stopped {
		return nil, nil
	}
	helloSeq := n.record(Event{Kind: EvHello, Peer: hello.Name, CauseSeq: hello.TraceSeq})
	ack := &message{Kind: kindHelloAck, Name: n.cfg.name, TraceSeq: helloSeq}
	var sess *childSession
	if i := slices.IndexFunc(n.children, func(s *childSession) bool { return s.name == hello.Name && s.gone && !s.left }); i >= 0 {
		sess = n.children[i]
		sess.c, sess.gone, sess.goneAt = c, false, time.Time{}
		ack.Revived = true
		n.record(Event{Kind: EvRevive, Peer: hello.Name})
		requeuedBefore := n.stats.Requeued
		// The link is in order and the port writes a child's transfers one
		// after another, several to a write, so the child offers at most one
		// partial transfer, and holds nothing written after it. An offered
		// transfer that was already handed off goes back to the port;
		// whatever else was on the port never reached the child.
		for _, rp := range hello.Resume {
			if tr := sess.outstanding[rp.Task]; tr != nil {
				delete(sess.outstanding, rp.Task)
				if sess.active != nil {
					n.requeue(sess, sess.active)
				}
				sess.active = tr
			}
		}
		if tr := sess.active; tr != nil {
			i := slices.IndexFunc(hello.Resume, func(rp resumePoint) bool { return rp.Task == tr.task.ID })
			if i >= 0 && hello.Resume[i].Offset <= len(tr.task.Payload) {
				// Resume mid-payload from the offset the hello offers.
				tr.offset = hello.Resume[i].Offset
				tr.resumed = true
				ack.Accepted = append(ack.Accepted, tr.task.ID)
				n.stats.Resumed++
			} else {
				// A transfer still on the port never had its final chunk
				// written, so with nothing offered the child holds none of
				// it: back to the pool.
				n.requeue(sess, tr)
				sess.active = nil
			}
		}
		// Revive-time reconciliation: requeue every handed-off task the
		// hello no longer holds — not in the subtree, not computed with a
		// result awaiting an ack, not resuming. It was lost with the old
		// connection, and waiting for a grace expiry that perpetual
		// revival keeps pushing out would stall the run forever. One the
		// hello does hold stands. (Holding is sorted: holding.)
		for _, id := range slices.Sorted(maps.Keys(sess.outstanding)) {
			if _, held := slices.BinarySearch(hello.Holding, id); !held {
				tr := sess.outstanding[id]
				delete(sess.outstanding, id)
				n.requeue(sess, tr)
			}
		}
		n.stats.RequeuedOnRevive += n.stats.Requeued - requeuedBefore
	} else {
		sess = &childSession{name: hello.Name, c: c, id: n.nextID, slot: len(n.children), outstanding: make(map[uint64]*outTransfer)}
		n.nextID++
		n.children = append(n.children, sess)
		n.core.Slots = append(n.core.Slots, protocol.Slot{Child: sess.id, Down: true})
		n.resort()
	}
	if d := int64(hello.N) - n.core.Slots[sess.slot].Pending; d > 0 {
		// Requests the old connection swallowed, or that transfers requeued
		// above had consumed: registered now, with no request frame.
		n.record(Event{Kind: EvRequestServed, Peer: sess.name, Value: d})
	}
	n.core.Reconcile(sess.slot, int64(hello.N), 0, sess.active != nil)
	sess.admitting = true
	n.reach(sess)
	return sess, ack
}

// childFrame takes one frame a child sent on c. Once the session is revived
// on a newer connection, a stale conn's frames may no longer change it.
func (n *Node) childFrame(s *childSession, c *conn, m *message) {
	switch m.Kind {
	case kindRequest:
		if s.c == c && s.slot >= 0 {
			n.core.Request(s.slot, int64(m.N), 0)
			// Recorded in the owner step that bumps pending, so per-node
			// event order matches the order the send port observes
			// serviceability.
			n.record(Event{Kind: EvRequestServed, Peer: s.name, Value: int64(m.N), CauseSeq: m.TraceSeq})
		}
	case kindResult:
		// A result is expected exactly while its task is outstanding;
		// anything else is a replay of one already relayed (or of a task
		// reclaimed and re-dispatched elsewhere) — ack it so the child
		// retires its ledger entry, but do not relay it again. The ack rides
		// the send port's next turn, one frame for all owed on c.
		r := Result{ID: m.Task, Output: m.Output, Origin: m.Origin}
		recvSeq := n.record(Event{Kind: EvResultRecv, Task: m.Task, Origin: m.Origin,
			Peer: s.name, CauseSeq: m.TraceSeq})
		if _, expected := s.outstanding[m.Task]; expected {
			delete(s.outstanding, m.Task)
			n.owe(r)
		} else {
			n.stats.ResultsDeduped++
			n.record(Event{Kind: EvResultDedupe, Task: m.Task, Origin: m.Origin, Peer: s.name})
		}
		if s.c == c && !s.gone {
			s.acks = append(s.acks, resultKey{Task: m.Task, Origin: m.Origin})
			s.ackSeq = recvSeq
		}
	case kindGoodbye:
		if s.c == c {
			s.gone, s.left = true, true
			n.reach(s)
			n.record(Event{Kind: EvGoodbye, Peer: s.name, CauseSeq: m.TraceSeq})
		}
	default:
		// kindHello arrives only through the accept handshake, and
		// kindChunk, kindHelloAck, kindShutdown, and kindResultAck flow
		// parent→child, never up a child link. Anything here is a peer
		// protocol bug; receipt already counted as proof of life, and
		// dropping the frame is the safe response.
	}
}

// markChildGone flags a child's link dead at now — unless the session has
// already been revived on a newer connection — and starts the reconnect
// grace window, at whose end decide reclaims its tasks. Whoever saw the
// link fail has closed the conn.
func (n *Node) markChildGone(s *childSession, c *conn, now time.Time) {
	if s.c != c || s.gone {
		return
	}
	s.gone, s.goneAt, s.acks = true, now, s.acks[:0]
	n.reach(s)
	n.record(Event{Kind: EvSever, Peer: s.name})
}

// reach tells the core whether child s can be served: not gone, and not
// waiting for its hello-ack to be written. A reclaimed session has no slot.
func (n *Node) reach(s *childSession) {
	switch {
	case s.slot < 0:
	case s.gone || s.admitting:
		n.core.ChildDown(s.slot)
	default:
		n.core.ChildUp(s.slot)
	}
}

// runLedger is the Run the root is collecting: every task ID it
// dispatched, owed until its result is collected, the results in arrival
// order, and the slot Run waits on.
type runLedger struct {
	owed    map[uint64]bool
	results []Result
	reply   chan reply
}

// run opens a Run's ledger and takes its tasks into the root's pool,
// unless a Run is already in flight, two tasks share an ID, or one reuses
// the ID of a task an abandoned Run still has in flight (the two results
// could not be told apart).
func (n *Node) run(tasks []Task, to chan reply) error {
	if n.running != nil {
		return errors.New("live: a Run is already in flight")
	}
	owed := make(map[uint64]bool, len(tasks))
	for _, t := range tasks {
		switch {
		case owed[t.ID]:
			return fmt.Errorf("live: duplicate task id %d", t.ID)
		case n.abandoned[t.ID]:
			return fmt.Errorf("live: task id %d is still in flight from an abandoned Run", t.ID)
		}
		owed[t.ID] = true
	}
	n.running = &runLedger{owed: owed, results: make([]Result, 0, len(tasks)), reply: to}
	n.buffer.pushAll(tasks)
	n.core.Refill(int64(len(tasks)))
	if len(tasks) == 0 {
		n.endRun(nil)
	}
	return nil
}

// endRun replies to the Run in flight with what it collected, and err,
// and closes its ledger. Tasks it still owes are abandoned: those in the
// pool leave it, and those in flight are marked, so their results and
// requeues are dropped.
func (n *Node) endRun(err error) {
	run := n.running
	n.running = nil
	n.emit(effect{kind: effReply, to: run.reply, r: reply{results: run.results, err: err}})
	n.core.Refill(-int64(n.buffer.remove(func(t Task) bool { return run.owed[t.ID] })))
	for _, id := range n.holding() {
		if run.owed[id] {
			n.abandoned[id] = true
		}
	}
}

// owe takes a result this node owes upward: to the ledger, or at the root
// to the Run in flight, which completes with its last owed result. The
// root drops an abandoned task's result, one no Run waits for, and a
// duplicate; one the Run in flight did not dispatch fails it.
func (n *Node) owe(r Result) {
	if !n.root {
		n.enqueueResult(r)
		return
	}
	run := n.running
	if n.abandoned[r.ID] || run == nil { // no Run waits for it
		delete(n.abandoned, r.ID)
		return
	}
	switch owed, known := run.owed[r.ID]; {
	case !known:
		n.endRun(fmt.Errorf("live: unexpected result id %d", r.ID))
	case owed:
		run.owed[r.ID] = false
		run.results = append(run.results, r)
		n.record(Event{Kind: EvResultCollect, Task: r.ID, Origin: r.Origin})
		if len(run.results) == len(run.owed) {
			n.endRun(nil)
		}
	}
}

// freed owes the parent the requests the core issued for a taken task:
// one for the buffer it left, one more for a buffer grown in its place.
// The uplink writer sends what is owed, as one frame, whenever there is a
// parent.
func (n *Node) freed(t protocol.Take) {
	for _, owed := range [...]bool{t.Request, t.Grew} {
		if owed {
			n.reqDeficit++
		}
	}
}

// computed takes a finished computation: the result goes to the local
// collector (root) or the ledger, and only then does the task leave
// computing, so a reconnect hello always accounts for it.
func (n *Node) computed(t Task, out []byte, took time.Duration) {
	n.record(Event{Kind: EvComputeDone, Task: t.ID, Origin: n.cfg.name, Value: took.Nanoseconds()})
	n.stats.Computed++
	n.owe(Result{ID: t.ID, Output: out, Origin: n.cfg.name})
	n.computing = n.computing[:0]
	n.core.ComputeDone()
	n.freed(protocol.Take{Grew: n.core.G3()})
}

// resultEntry is one slot of the unacked-result ledger: a result owed to
// the parent, keyed by task ID + origin. A successful write does not
// retire it — only the parent's ack does — so a frame lost to a severed
// or lossy link is replayed rather than silently dropped.
type resultEntry struct {
	res    Result
	sentOn *conn     // uplink the entry was last written to; nil = never sent
	sentAt time.Time // when it was last written, for the retransmit timer
}

// upJob is one uplink batch as the owner decided it: the owed requests as
// one frame, then the due ledger entries. The owner reuses the one job;
// the writer holds it from one pull to the next, and c is nil once it is
// folded back in.
type upJob struct {
	c                          *conn
	msgs                       []message
	entries                    []*resultEntry // the ledger entries msgs carries, from firstResult on
	firstResult, reqN, replays int
	told                       bool // a hello built while the write was in doubt reported reqN as sent
	accepted                   int  // filled in by the writer, with err
	err                        error
}

// parentFrame takes one frame that came down the uplink. A chunk opens a
// segment or completes a task t, which the node records as received on
// its own last chunk and buffers; the parent is told nothing, having
// handed the task off when it wrote that chunk.
func (n *Node) parentFrame(in *input) {
	m, peer := &in.m, in.c.label()
	switch m.Kind {
	case kindChunk:
		if in.segment {
			n.record(Event{Kind: EvChunkRecv, Task: m.Task, Peer: peer, Off: m.Offset, CauseSeq: m.TraceSeq})
		}
		if t := in.t; t != nil {
			n.record(Event{Kind: EvTaskReceived, Task: t.id, Peer: peer,
				Off: len(t.payload), CauseSeq: m.TraceSeq})
			n.buffer.push(Task{ID: t.id, Payload: t.payload})
			n.core.Arrived()
			n.stats.Received++
		}
	case kindResultAck:
		for _, k := range m.Acks {
			n.retireResult(k.Task, k.Origin)
			n.record(Event{Kind: EvResultAck, Task: k.Task, Origin: k.Origin, Peer: peer, CauseSeq: m.TraceSeq})
		}
	case kindShutdown:
		n.record(Event{Kind: EvShutdown, Peer: peer})
	}
}

// unanswered is the node's count of requests sent to its parent that no
// task has answered: every buffer that is not holding a task, receiving
// one (partial of them), or still owed its request. (Tasks requeued from a
// dead child can push the pool past the buffers; the count bottoms out at
// none.)
func (n *Node) unanswered(partial int) int {
	return max(0, int(n.core.Capacity)-n.buffer.len()-partial-n.reqDeficit)
}

// holding enumerates every task ID this node's subtree still accounts for:
// buffered, on the compute port, handed to the send port, delivered into a
// child subtree without a returned result, or computed with the result
// awaiting an ack. The reconnect hello carries the set so the parent can
// requeue outstanding tasks the subtree lost (revive-time reconciliation).
// Partially received transfers are conveyed separately as Resume points.
func (n *Node) holding() []uint64 {
	set := make(map[uint64]bool, n.buffer.len()+len(n.unacked)+len(n.computing))
	n.buffer.each(func(t Task) { set[t.ID] = true })
	for _, id := range n.computing {
		set[id] = true
	}
	for _, s := range n.children {
		if s.active != nil {
			set[s.active.task.ID] = true
		}
		for id := range s.outstanding {
			set[id] = true
		}
	}
	for _, e := range n.unacked {
		set[e.res.ID] = true
	}
	return slices.Sorted(maps.Keys(set))
}

// enqueueResult appends a result to the unacked ledger unless an entry
// with the same task ID + origin is already pending (a duplicate from a
// re-delivered task; it would be deduplicated upstream anyway). Every
// uplink result routes through the ledger — there is no direct send path
// — so a frame lost to a just-severed conn, a scripted drop, or a
// disconnect is always replayed: only the parent's ack retires an entry.
func (n *Node) enqueueResult(r Result) {
	for _, e := range n.unacked {
		if e.res.ID == r.ID && e.res.Origin == r.Origin {
			n.stats.ResultsDeduped++
			return
		}
	}
	n.unacked = append(n.unacked, &resultEntry{res: r})
}

// pullUplink is the uplink writer's input: it folds in the batch the
// writer last wrote, if any, as written at now, and hands it the next, or
// nil — the writer parks — once nothing is owed. A cut batch loses nothing
// the node knows unsent: unaccepted requests are owed again (unless a
// hello built meanwhile reported them sent, and the parent registered them
// on its word), and unaccepted results stay in the ledger untouched. A
// failed write retires the uplink in the step that marks what it carried,
// so no later batch can follow it onto the dead conn.
func (n *Node) pullUplink(now time.Time) {
	if j := &n.up; j.c != nil {
		if j.accepted >= j.firstResult {
			n.stats.Requests += int64(j.reqN)
		} else if !j.told {
			n.reqDeficit += j.reqN // cut before the request: owed again
		}
		for _, e := range j.entries[:max(j.accepted-j.firstResult, 0)] {
			e.sentOn = j.c
			e.sentAt = now
		}
		n.stats.ResultsReplayed += int64(j.replays)
		if j.err != nil && n.parent == j.c {
			n.parent = nil // the writer closed it; the supervisor redials
		}
		j.c = nil
	}
	j := n.nextUplink(now)
	n.upBusy = j != nil
	n.emit(effect{kind: effBatch, job: j})
}

// nextUplink builds everything owed on the link as one batch, for one
// write: the owed requests as one frame, then the due ledger entries; nil
// when nothing is owed or there is no link.
//
// The ledger is walked in arrival order, (re)sending every entry not yet
// written to the current parent conn — which after a reconnect replays
// all outstanding results — and, on a live link, retransmitting entries
// unacked past the resultRetry deadline. Single-sender FIFO means replay
// order always matches arrival order. Sends are pipelined: acks stream
// back asynchronously and retire entries as they arrive; one acked while
// its batch is on the writer is sent redundantly and deduplicated upstream
// — exactly-once is preserved by the parent's dedupe, not by the writer's
// timing.
func (n *Node) nextUplink(now time.Time) *upJob {
	if n.parent == nil || n.stopped {
		return nil
	}
	batch, c, replays := n.dueResultBatch(now)
	if n.reqDeficit+len(batch) == 0 {
		return nil
	}
	j := &n.up
	j.c, j.entries, j.replays, j.told = c, batch, replays, false
	// Sent from here on: the parent may answer the moment the bytes leave.
	j.reqN, n.reqDeficit = n.reqDeficit, 0
	j.msgs = j.msgs[:0]
	if j.reqN > 0 {
		reqSeq := n.record(Event{Kind: EvRequestSent, Peer: c.label(), Value: int64(j.reqN)})
		j.msgs = append(j.msgs, message{Kind: kindRequest, N: j.reqN, TraceSeq: reqSeq})
	}
	j.firstResult = len(j.msgs)
	for _, e := range batch {
		kind := EvResultSend
		if e.sentOn != nil {
			kind = EvResultReplay
		}
		sendSeq := n.record(Event{Kind: kind, Task: e.res.ID, Origin: e.res.Origin, Peer: c.label()})
		j.msgs = append(j.msgs, message{Kind: kindResult, Task: e.res.ID, Output: e.res.Output, Origin: e.res.Origin,
			TraceSeq: sendSeq})
	}
	return j
}

// maxResultBatch caps how many ledger entries one writer round sends; a
// longer backlog simply takes several rounds back to back.
const maxResultBatch = 128

// dueResultBatch snapshots, in ledger (arrival) order, every entry due
// on the wire at now: entries never written to the current uplink (first
// send, or replay after a reconnect) and — when retransmission is enabled
// — entries unacked past the retry deadline. replays counts the entries
// being retransmitted rather than first-sent. The batch is the uplink
// writer's reusable scratch.
func (n *Node) dueResultBatch(now time.Time) (batch []*resultEntry, c *conn, replays int) {
	c = n.parent
	if c == nil {
		return nil, nil, 0
	}
	batch = n.due[:0]
	retry := n.cfg.resultRetry
	for _, e := range n.unacked {
		if e.sentOn == c && (retry <= 0 || now.Sub(e.sentAt) < retry) {
			continue
		}
		if e.sentOn != nil {
			replays++
		}
		batch = append(batch, e)
		if len(batch) == maxResultBatch {
			break
		}
	}
	n.due = batch
	return batch, c, replays
}

// resultRetryWait reports how long after now the earliest-sent unacked
// entry hits its retransmit deadline; 0 means no timer is needed (retry
// disabled, link down, or ledger empty).
func (n *Node) resultRetryWait(now time.Time) time.Duration {
	retry := n.cfg.resultRetry
	if retry <= 0 || n.parent == nil || len(n.unacked) == 0 {
		return 0
	}
	var first time.Time // the earliest write of an entry
	for _, e := range n.unacked {
		if !e.sentAt.IsZero() && (first.IsZero() || e.sentAt.Before(first)) {
			first = e.sentAt
		}
	}
	if first.IsZero() {
		return 0
	}
	return max(retry-now.Sub(first), time.Millisecond)
}

// retireResult removes the ledger entry matching an ack.
func (n *Node) retireResult(task uint64, origin string) {
	for i, e := range n.unacked {
		if e.res.ID == task && e.res.Origin == origin {
			n.unacked = append(n.unacked[:i], n.unacked[i+1:]...)
			n.stats.ResultAcks++
			return
		}
	}
}
