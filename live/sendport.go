package live

import (
	"sort"
	"time"
)

// sendPort is the node's single outbound task port. Each iteration
// advances exactly one transfer by one chunk, choosing the
// highest-priority transfer by measured link speed — so under the
// interruptible protocol a request from a faster child preempts a slower
// child's transfer at the next chunk boundary, and the preempted transfer
// later resumes from its offset (the paper's shelve-and-resume). Under the
// non-interruptible protocol the port sticks with a transfer until its
// last chunk.
func (n *Node) sendPort() {
	for {
		s := n.nextChunk()
		if s == nil {
			n.portDue = time.Time{} // idle: the emulated link's schedule restarts
			select {
			case <-n.kick:
				continue
			case <-n.done:
				return
			}
		}
		n.sendChunk(s)
		if n.isClosed() {
			return
		}
	}
}

// nextChunk picks the child whose transfer the port should advance,
// starting a fresh transfer (consuming a buffered task and the child's
// request) when that child has no active one. It returns nil when there is
// nothing to send.
func (n *Node) nextChunk() *childSession {
	n.mu.Lock()

	// Reclaim work from dead children once the reconnect grace window
	// expires (immediately for deliberate departures): the in-flight
	// transfer and every task delivered into the dead subtree without a
	// result yet go back into the buffer for re-execution — the engine's
	// DepartMutation semantics. Reclaimed sessions leave the child list;
	// a later reconnect starts a fresh session.
	grace := n.cfg.ReconnectGrace
	kept := n.children[:0]
	for _, s := range n.children {
		if !s.gone || (!s.left && grace > 0 && time.Since(s.goneAt) < grace) {
			kept = append(kept, s)
			continue
		}
		if s.active != nil {
			n.requeueLocked(s, s.active)
			s.active = nil
		}
		ids := make([]uint64, 0, len(s.outstanding))
		for id := range s.outstanding {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			n.requeueLocked(s, s.outstanding[id])
		}
		clear(s.outstanding)
	}
	n.children = kept

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
				n.mu.Unlock()
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
		n.mu.Unlock()
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
		// The dispatch decision, recorded in the same critical section that
		// consumes the buffered task and the child's request. Value is the
		// chosen child's measured link estimate (ns) at decision time; the
		// send port is a single goroutine, so recorder order is exactly the
		// order decisions and estimate updates became visible to it.
		best.active.traceSeq = n.record(Event{Kind: EvChunkSend, Task: t.ID, Peer: best.name,
			Value: int64(best.link.estimate() * 1e9)})
		n.stats.Forwarded++
		n.stats.ByChild[best.name]++
		n.bumpApp(t.App, func(a *AppStats) { a.Forwarded++ })
		if !n.root {
			n.oweRequestLocked(t.App) // the freed buffer requests a refill (the paper's rule)
		}
	}
	n.mu.Unlock()
	return best
}

// wakeLocked nudges compute and port; callers hold n.mu (the channels are
// non-blocking, so signaling under the lock is safe).
func (n *Node) wakeLocked() {
	select {
	case n.comp <- struct{}{}:
	default:
	}
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// requeueLocked returns a transfer's task to the pool for re-dispatch,
// behind everything already buffered. The request the dispatch consumed is
// not its business: a child that comes back says in its hello how many
// requests are still unanswered. The caller takes the transfer off the
// session and holds n.mu.
func (n *Node) requeueLocked(s *childSession, tr *outTransfer) {
	n.buffer.push(tr.task)
	n.record(Event{Kind: EvRequeue, Task: tr.task.ID, Peer: s.name})
	n.bumpApp(tr.task.App, func(a *AppStats) { a.Requeued++ })
	n.stats.Requeued++
	n.wakeLocked()
}

// sendChunk streams up to chunkBatch chunks of s's active transfer in
// one batched write, measures the time it took (including any emulated
// link delay), and updates the child's measured link speed — the only
// information the priority uses. Preemption still happens between port
// turns: a turn commits to at most one batch on one child.
//
// The turn that builds a transfer's final chunk hands the task off before
// writing it: the transfer moves from active to outstanding and the port
// is free, so a child with further pending requests is served back to
// back instead of one ack round trip apart. Registering the task first is
// what keeps even the fastest child's result from arriving unexpected; a
// failed final write needs no path of its own, because the revive
// reconciliation and the grace-expiry reclaim already cover outstanding.
func (n *Node) sendChunk(s *childSession) {
	batch := chunkBatch
	if n.cfg.LinkDelay != nil {
		// The emulated delay is charged per chunk; batching would fold a
		// whole batch under one delay and skew the measured priorities.
		batch = 1
	}

	n.mu.Lock()
	tr := s.active
	c := s.c
	if tr == nil || s.gone {
		n.mu.Unlock()
		return
	}
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
	traceSeq := tr.traceSeq
	n.mu.Unlock()

	// Build the turn's chunk frames into the port's reusable scratch. An
	// empty payload still takes exactly one (empty, Last) chunk.
	if cap(n.portMsgs) < batch {
		n.portMsgs = make([]message, batch)
		n.portFrames = make([]*message, 0, batch)
	}
	msgs := n.portMsgs[:0]
	frames := n.portFrames[:0]
	end := offset
	for {
		chunkEnd := end + n.cfg.ChunkSize
		if chunkEnd > len(payload) {
			chunkEnd = len(payload)
		}
		msgs = append(msgs, message{
			Kind:      kindChunk,
			Task:      task.ID,
			Size:      len(payload),
			Offset:    end,
			Data:      payload[end:chunkEnd],
			Last:      chunkEnd == len(payload),
			TraceNode: n.cfg.Name,
			TraceSeq:  traceSeq,
			App:       task.App,
		})
		end = chunkEnd
		if end == len(payload) || len(msgs) == batch {
			break
		}
	}
	for i := range msgs {
		frames = append(frames, &msgs[i])
	}

	var delay time.Duration
	if n.cfg.LinkDelay != nil { // this turn is a single chunk
		delay = n.cfg.LinkDelay(s.name)
		n.paceChunk(delay)
	}
	start := time.Now()
	accepted, err := c.sendBatch(frames)
	perChunk := time.Since(start)
	if accepted > 1 {
		perChunk /= time.Duration(accepted)
	}
	// The configured delay, not the time slept, is folded into the
	// measured chunk time, so priorities reflect the link and not the
	// pacing clock's catching up.
	s.link.observe(perChunk + delay)

	// The accepted prefix of the batch is on the wire (or scripted as
	// dropped, which sequential sends also count as progress); advance the
	// transfer that far even when the tail failed — the reconnect hello's
	// resume offer recovers the rest. The session may have been revived on
	// a newer connection mid-send; only the owning connection may advance
	// the transfer, and a handed-off one is no longer the port's.
	n.mu.Lock()
	if accepted > 0 && s.c == c && s.active == tr {
		lastFrame := frames[accepted-1]
		tr.offset = lastFrame.Offset + len(lastFrame.Data)
	}
	n.mu.Unlock()

	if err != nil {
		// The child is unreachable; the grace window starts now and its
		// tasks are reclaimed when it expires.
		n.markChildGone(s, c)
	}
}

// paceChunk charges one chunk of the emulated link to the port's
// schedule and sleeps until it is due. The schedule runs for as long as
// the port stays busy (sendPort restarts it whenever the port idles), so
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
