package live

import (
	"slices"
	"sort"
	"time"
)

// portWrite is one write of a send-port turn, on one child's conn: the
// result acks owed there and, when tr is set, a batch of tr's chunks — the
// write the port paces and times. The owner reuses the turn's writes; the
// port holds them from hand-off to report.
type portWrite struct {
	s       *childSession
	c       *conn
	msgs    []message
	acks    int
	tr      *outTransfer
	restart bool // the port idled since its last chunk: restart the pacing schedule
	// Filled in by the port.
	accepted    int
	err         error
	delay, took time.Duration
}

// portTurn hands the idle send port its next turn, when there is one: the
// transfer nextChunk picks, with every result ack owed to a child riding
// the same turn.
func (n *Node) portTurn() {
	target, turn := n.nextChunk(), n.turn[:0]
	for _, s := range n.children {
		if s != target && (len(s.acks) == 0 || s.gone || s.admitting) {
			continue
		}
		turn = slices.Grow(turn, 1)[:len(turn)+1] // a slot's msgs keep their capacity
		w := &turn[len(turn)-1]
		*w = portWrite{s: s, c: s.c, msgs: append(w.msgs[:0], s.acks...), acks: len(s.acks)}
		s.acks = s.acks[:0]
		if s == target {
			w.tr, w.restart = n.startTurn(s, w), !n.portPaced
		}
	}
	n.portPaced = target != nil // idle, the emulated link's schedule restarts
	if n.turn = turn; len(turn) > 0 {
		n.portBusy = true
		n.portJobs <- turn
	}
}

// reclaim returns work from dead children once the reconnect grace window
// expires (immediately for deliberate departures): the in-flight transfer
// and every task delivered into the dead subtree without a result yet go
// back into the buffer for re-execution — the engine's DepartMutation
// semantics. Reclaimed sessions leave the child list; a later reconnect
// starts a fresh session. It returns how long until the next grace window
// still open expires (0: none is).
func (n *Node) reclaim() (wait time.Duration) {
	grace := n.cfg.ReconnectGrace
	kept := n.children[:0]
	for _, s := range n.children {
		if !s.gone || (!s.left && grace > 0 && time.Since(s.goneAt) < grace) {
			if s.gone && (wait == 0 || grace-time.Since(s.goneAt) < wait) {
				wait = max(grace-time.Since(s.goneAt), time.Millisecond)
			}
			kept = append(kept, s)
			continue
		}
		if s.active != nil {
			n.requeue(s, s.active)
			s.active = nil
		}
		ids := make([]uint64, 0, len(s.outstanding))
		for id := range s.outstanding {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			n.requeue(s, s.outstanding[id])
		}
		clear(s.outstanding)
	}
	n.children = kept
	return wait
}

// nextChunk picks the child whose transfer the port should advance,
// starting a fresh transfer (consuming a buffered task and the child's
// request) when that child has no active one. It returns nil when there is
// nothing to send. Each pick advances exactly one transfer by one turn,
// choosing the highest-priority transfer by measured link speed — so under
// the interruptible protocol a request from a faster child preempts a
// slower child's transfer at the next turn, and the preempted transfer
// later resumes from its offset (the paper's shelve-and-resume). Under the
// non-interruptible protocol the port sticks with a transfer until its
// last chunk.
func (n *Node) nextChunk() *childSession {
	var best *childSession
	bestFresh := false
	better := func(a *childSession, b *childSession) bool {
		if b == nil {
			return true
		}
		ka, kb := a.link.estimate(), b.link.estimate()
		if ka != kb {
			return ka < kb
		}
		return a.name < b.name
	}
	haveTask := n.buffer.len() > 0
	for _, s := range n.children {
		if s.gone || s.admitting {
			continue
		}
		switch {
		case s.active != nil:
			if n.cfg.NonInterruptible {
				// Run-to-completion: an unfinished transfer owns the port.
				return s
			}
			if better(s, best) {
				best, bestFresh = s, false
			}
		// A child whose last transfer was handed off is served again on
		// its next pending request: the port never waits on a round trip.
		case s.pending > 0 && haveTask:
			if better(s, best) {
				best, bestFresh = s, true
			}
		}
	}
	if best == nil {
		return nil
	}

	if bestFresh {
		// Preemption accounting: starting a fresh transfer while another
		// child's transfer is unfinished is an interruption.
		interrupted := false
		for _, s := range n.children {
			if s != best && s.active != nil {
				if !interrupted {
					n.stats.Interrupts++
					interrupted = true
				}
				// The shelved transfer's next chunk opens a new segment.
				n.record(Event{Kind: EvChunkInterrupt, Task: s.active.task.ID,
					Peer: s.name, Off: s.active.offset})
				s.active.resumed = true
			}
		}
		// WRR over application tags decides whose task moves; the
		// bandwidth-centric choice of *which child* was made above.
		t := n.buffer.pop()
		best.pending--
		best.active = &outTransfer{task: t}
		// The dispatch decision, recorded in the owner step that consumes
		// the buffered task and the child's request. Value is the chosen
		// child's measured link estimate (ns) at decision time, so recorder
		// order is exactly the order decisions and estimate updates were
		// made.
		best.active.traceSeq = n.record(Event{Kind: EvChunkSend, Task: t.ID, Peer: best.name,
			Value: int64(best.link.estimate() * 1e9)})
		n.stats.Forwarded++
		n.stats.ByChild[best.name]++
		n.bumpApp(t.App, func(a *AppStats) { a.Forwarded++ })
		if !n.root {
			n.oweRequest(t.App) // the freed buffer requests a refill (the paper's rule)
		}
	}
	return best
}

// requeue returns a transfer's task to the pool for re-dispatch, behind
// everything already buffered. The request the dispatch consumed is not
// its business: a child that comes back says in its hello how many
// requests are still unanswered. The caller takes the transfer off the
// session.
func (n *Node) requeue(s *childSession, tr *outTransfer) {
	n.buffer.push(tr.task)
	n.record(Event{Kind: EvRequeue, Task: tr.task.ID, Peer: s.name})
	n.bumpApp(tr.task.App, func(a *AppStats) { a.Requeued++ })
	n.stats.Requeued++
}

// startTurn builds s's chunk batch into w: up to chunkBatch chunks of its
// active transfer, one write. Preemption happens between port turns: a
// turn commits to at most one batch on one child.
//
// The turn that builds a transfer's final chunk hands the task off before
// it is written: the transfer moves from active to outstanding and the
// port is free, so a child with further pending requests is served back to
// back instead of one ack round trip apart. Registering the task first is
// what keeps even the fastest child's result from arriving unexpected; a
// failed final write needs no path of its own, because the revive
// reconciliation and the grace-expiry reclaim already cover outstanding.
func (n *Node) startTurn(s *childSession, w *portWrite) *outTransfer {
	batch := chunkBatch
	if n.cfg.LinkDelay != nil {
		// The emulated delay is charged per chunk; batching would fold a
		// whole batch under one delay and skew the measured priorities.
		batch = 1
	}
	tr := s.active
	task := tr.task
	payload := task.Payload
	offset := tr.offset
	if tr.resumed {
		// First chunk after a preemption or a reconnect resume: a new
		// transfer segment begins here, and its trace context replaces the
		// original dispatch's on the wire.
		tr.traceSeq = n.record(Event{Kind: EvChunkResume, Task: task.ID,
			Peer: s.name, Off: offset})
		tr.resumed = false
	}
	if len(payload)-offset <= batch*n.cfg.ChunkSize {
		// The hand-off opens the transfer's last segment, so the child's
		// task-received names it as its cause and no merged timeline can
		// order anything the child does with the task before it.
		tr.traceSeq = n.record(Event{Kind: EvHandoff, Task: task.ID, Peer: s.name, Off: offset})
		s.outstanding[task.ID] = tr
		s.active = nil
	}

	// An empty payload still takes exactly one (empty, Last) chunk.
	end := offset
	for k := 0; ; k++ {
		chunkEnd := min(end+n.cfg.ChunkSize, len(payload))
		w.msgs = append(w.msgs, message{
			Kind:      kindChunk,
			Task:      task.ID,
			Size:      len(payload),
			Offset:    end,
			Data:      payload[end:chunkEnd],
			Last:      chunkEnd == len(payload),
			TraceNode: n.cfg.Name,
			TraceSeq:  tr.traceSeq,
			App:       task.App,
		})
		end = chunkEnd
		if end == len(payload) || k+1 == batch {
			break
		}
	}
	return tr
}

// sendPort is the node's single outbound task port. It writes each turn
// the owner decides (portTurn) — the chunk write paced on an emulated link
// and timed, including any delay — and reports back.
func (n *Node) sendPort() {
	var frames []*message
	report := func() { n.turnDone() }
	for turn := range n.portJobs {
		for i := range turn {
			w := &turn[i]
			if w.tr != nil && w.restart {
				n.portDue = time.Time{}
			}
			if w.tr != nil && n.cfg.LinkDelay != nil { // a single chunk
				w.delay = n.cfg.LinkDelay(w.s.name)
				n.paceChunk(w.delay)
			}
			start := time.Now()
			frames = frames[:0]
			for k := range w.msgs {
				frames = append(frames, &w.msgs[k])
			}
			if w.accepted, w.err = w.c.sendBatch(frames); w.err != nil {
				_ = w.c.close() // the child is unreachable
			}
			w.took = time.Since(start)
		}
		n.do(report)
	}
}

// turnDone folds a written port turn back in: the chunk write's measured
// time into the child's link estimate — the only information the priority
// uses — and its accepted prefix into the transfer's offset; a failed
// write starts its child's grace window, at whose end the tasks are
// reclaimed.
func (n *Node) turnDone() {
	n.portBusy = false
	for i := range n.turn {
		w := &n.turn[i]
		if chunks := max(w.accepted-w.acks, 0); w.tr != nil {
			perChunk := w.took
			if chunks > 1 {
				perChunk /= time.Duration(chunks)
			}
			// The configured delay, not the time slept, is folded into the
			// measured chunk time, so priorities reflect the link and not
			// the pacing clock's catching up.
			w.s.link.observe(perChunk + w.delay)
			// The accepted prefix of the batch is on the wire (or scripted
			// as dropped, which sequential sends also count as progress);
			// advance the transfer that far even when the tail failed — the
			// reconnect hello's resume offer recovers the rest. Only the
			// owning connection may advance the transfer, and a handed-off
			// one is no longer the port's.
			if chunks > 0 && w.s.c == w.c && w.s.active == w.tr {
				last := &w.msgs[w.accepted-1]
				w.tr.offset = last.Offset + len(last.Data)
			}
		}
		if w.err != nil {
			if w.acks > 0 {
				n.stats.SendErrors++ // the child replays those results and is acked again
			}
			n.markChildGone(w.s, w.c)
		}
	}
}

// paceChunk charges one chunk of the emulated link to the port's
// schedule and sleeps until it is due. The schedule runs for as long as
// the port stays busy (the owner restarts it whenever the port idles), so
// a late wake-up or a slow write shortens the next sleep instead of adding
// to every chunk: k back-to-back chunks take k·d plus one overshoot, never
// less than k·d, and idle time is never credit.
func (n *Node) paceChunk(d time.Duration) {
	if d <= 0 {
		return
	}
	if n.portDue.IsZero() {
		n.portDue = time.Now()
	}
	n.portDue = n.portDue.Add(d)
	time.Sleep(time.Until(n.portDue))
}
