package live

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"time"

	"bwcs/internal/protocol"
)

// The owner's send-port side: which child the port serves next, the turn
// it writes, and the dead children's work it reclaims.

// portWrite is one write of a send-port turn, on one child's conn: a
// result-ack frame listing keys, when any are owed there, then, when tr is
// set, the turn's chunks, tr's last — the write the port paces and times.
// The owner reuses the turn's writes; the port holds them from hand-off to
// report.
type portWrite struct {
	s       *childSession
	c       *conn
	msgs    []message
	keys    []resultKey
	tr      *outTransfer
	restart bool // the port idled since its last chunk: restart the pacing schedule
	// Filled in by the port.
	accepted    int
	err         error
	delay, took time.Duration
}

// portTurn hands the idle send port its next turn, when there is one: the
// transfer nextTransfer picks, with every result ack owed to a child riding
// the same turn.
func (n *Node) portTurn() {
	target, turn := n.nextTransfer(), n.turn[:0]
	for _, s := range n.children {
		if s != target && (len(s.acks) == 0 || s.gone || s.admitting) {
			continue
		}
		turn = slices.Grow(turn, 1)[:len(turn)+1] // a slot's msgs and keys keep their capacity
		w := &turn[len(turn)-1]
		*w = portWrite{s: s, c: s.c, msgs: w.msgs[:0], keys: append(w.keys[:0], s.acks...)}
		if len(w.keys) > 0 {
			w.msgs = append(w.msgs, message{Kind: kindResultAck, Acks: w.keys, TraceSeq: s.ackSeq})
			s.acks = s.acks[:0]
		}
		if s == target {
			w.tr, w.restart = n.startTurn(s, w), !n.portPaced
		}
	}
	n.portPaced = target != nil // idle, the emulated link's schedule restarts
	if n.turn = turn; len(turn) > 0 {
		n.portBusy = true
		n.emit(effect{kind: effPortTurn, writes: turn})
	}
}

// reclaim returns work from dead children once the reconnect grace window
// expires (immediately for deliberate departures): the in-flight transfer
// and every task delivered into the dead subtree without a result yet go
// back into the buffer for re-execution — the engine's DepartMutation
// semantics. Reclaimed sessions leave the child list; a later reconnect
// starts a fresh session. It returns how long after now the next grace
// window still open expires (0: none is).
func (n *Node) reclaim(now time.Time) (wait time.Duration) {
	grace := n.cfg.reconnectGrace
	for i := 0; i < len(n.children); {
		s := n.children[i]
		if left := grace - now.Sub(s.goneAt); !s.gone || (!s.left && grace > 0 && left > 0) {
			if s.gone && (wait == 0 || left < wait) {
				wait = max(left, time.Millisecond)
			}
			i++
			continue
		}
		if s.active != nil {
			n.requeue(s, s.active)
			s.active = nil
		}
		for _, id := range slices.Sorted(maps.Keys(s.outstanding)) {
			n.requeue(s, s.outstanding[id])
		}
		clear(s.outstanding)
		n.core.Remove(i) // its transfers are back in the pool
		n.children = slices.Delete(n.children, i, i+1)
		s.slot = -1
		for j := i; j < len(n.children); j++ {
			n.children[j].slot = j
		}
	}
	return wait
}

// nextTransfer carries out the core's send-port decision and returns the
// child whose transfer the port advances next, nil when there is nothing
// to send: a fresh transfer is dispatched, a shelved one resumes from its
// offset, or the unfinished one goes on. Under the interruptible protocol a
// faster child's request shelves a slower child's transfer (the paper's
// shelve-and-resume, between turns); that is an interruption, whichever
// transfer takes the port. Under the non-interruptible protocol a transfer
// keeps the port until its last chunk.
func (n *Node) nextTransfer() *childSession {
	d := n.core.DecideSend(0, nil)
	if d.Shelved >= 0 {
		o := n.children[d.Shelved]
		n.stats.Interrupts++
		n.record(Event{Kind: EvChunkInterrupt, Task: o.active.task.ID, Peer: o.name, Off: o.active.offset})
		o.active.resumed = true // its next chunk opens a new segment
	}
	switch {
	case d.Slot >= 0:
		s := n.children[d.Slot]
		if !d.Resume {
			n.dispatch(s, d.Take)
		}
		return s
	case n.core.Sending() >= 0:
		return n.children[n.core.Sending()]
	}
	return nil
}

// dispatch starts the fresh transfer the core started to s, on a buffered
// task; take is what became of the buffer the task left.
func (n *Node) dispatch(s *childSession, take protocol.Take) {
	t := n.buffer.pop() // the oldest buffered task; which child gets it was the core's choice
	s.active = &outTransfer{task: t}
	// The dispatch decision, recorded in the owner step that consumes the
	// buffered task and the child's request. Value is the chosen child's
	// measured link estimate (ns) at decision time, so recorder order is
	// exactly the order decisions and estimate updates were made.
	s.active.traceSeq = n.record(Event{Kind: EvChunkSend, Task: t.ID, Peer: s.name, Value: s.key()})
	n.stats.Forwarded++
	n.stats.ByChild[s.name]++
	n.freed(take) // the freed buffer requests a refill (the paper's rule)
}

// key is the child's priority key: its measured link estimate in
// nanoseconds.
func (s *childSession) key() int64 { return int64(s.link.estimate() * 1e9) }

// resort keeps the children, and their core slots with them, in priority
// order: by key, then by name. The slots move as whole values, so their
// state goes with them.
func (n *Node) resort() {
	slices.SortFunc(n.children, func(a, b *childSession) int {
		return cmp.Or(cmp.Compare(a.key(), b.key()), strings.Compare(a.name, b.name), cmp.Compare(a.id, b.id))
	})
	slots := n.slotBuf[:0]
	for i, s := range n.children {
		sl := n.core.Slots[s.slot]
		sl.Key = s.key()
		slots = append(slots, sl)
		s.slot = i
	}
	n.slotBuf = n.core.Slots
	n.core.Relist(slots)
}

// requeue returns a transfer's task to the pool for re-dispatch, behind
// everything already buffered, or drops it if its Run was abandoned. The
// request the dispatch consumed is not its business: a child that comes
// back says in its hello how many requests are still unanswered. The
// caller takes the transfer off the session.
func (n *Node) requeue(s *childSession, tr *outTransfer) {
	if n.abandoned[tr.task.ID] {
		delete(n.abandoned, tr.task.ID)
		return
	}
	n.buffer.push(tr.task)
	n.core.Refill(1)
	n.record(Event{Kind: EvRequeue, Task: tr.task.ID, Peer: s.name})
	n.stats.Requeued++
}

// startTurn builds s's turn into w and returns its last transfer: up to
// chunkBatch chunks to one child, one write, across as many of its pending
// requests as fit — each time a transfer is handed off with budget left, s
// is dispatched its next, as the next turn would. Preemption happens
// between port turns.
//
// The turn that builds a transfer's final chunk hands the task off before
// it is written: the transfer moves from active to outstanding and the
// port is free, so a child with further pending requests is served back to
// back instead of one round trip apart. Registering the task first is what
// keeps even the fastest child's result from arriving unexpected; a failed
// final write needs no path of its own, because the revive reconciliation
// and the grace-expiry reclaim already cover outstanding.
func (n *Node) startTurn(s *childSession, w *portWrite) *outTransfer {
	budget := chunkBatch
	if n.cfg.linkDelay != nil {
		// The emulated delay is charged per chunk; batching would fold a
		// whole batch under one delay and skew the measured priorities.
		budget = 1
	}
	for {
		tr := s.active
		task := tr.task
		payload := task.Payload
		if tr.resumed {
			// First chunk after a preemption or a reconnect resume: a new
			// transfer segment begins here, and its trace context replaces
			// the original dispatch's on the wire.
			tr.traceSeq = n.record(Event{Kind: EvChunkResume, Task: task.ID,
				Peer: s.name, Off: tr.offset})
			tr.resumed = false
		}
		if len(payload)-tr.offset <= budget*n.cfg.chunkSize {
			// The hand-off opens the transfer's last segment, so the child's
			// task-received names it as its cause and no merged timeline can
			// order anything the child does with the task before it.
			tr.traceSeq = n.record(Event{Kind: EvHandoff, Task: task.ID, Peer: s.name, Off: tr.offset})
			s.outstanding[task.ID] = tr
			s.active = nil
			n.freed(protocol.Take{Grew: n.core.SendDone()}) // G2
		}
		// An empty payload still takes exactly one (empty) chunk.
		for end := tr.offset; ; {
			chunkEnd := min(end+n.cfg.chunkSize, len(payload))
			w.msgs = append(w.msgs, message{
				Kind:     kindChunk,
				Task:     task.ID,
				Size:     len(payload),
				Offset:   end,
				Data:     payload[end:chunkEnd],
				TraceSeq: tr.traceSeq,
			})
			budget--
			if end = chunkEnd; end == len(payload) || budget == 0 {
				break
			}
		}
		if s.active != nil || budget == 0 || n.core.Slots[s.slot].Pending == 0 || n.core.Occupied == 0 {
			return tr
		}
		n.dispatch(s, n.core.Start(s.slot, 0))
	}
}

// turnDone folds a written port turn back in: the chunk write's measured
// time into the child's link estimate — the only information the priority
// uses — and its accepted prefix into the transfer's offset; a failed
// write starts its child's grace window at now, at whose end the tasks are
// reclaimed.
func (n *Node) turnDone(now time.Time) {
	n.portBusy = false
	defer n.resort() // the estimates are the slots' keys
	for i := range n.turn {
		w := &n.turn[i]
		// The chunks accepted behind the ack frame, if one opens the write.
		// A write cut before its first chunk measured nothing of the link:
		// its duration, up to a write timeout, would deprioritise the child.
		if chunks := w.accepted - min(len(w.keys), 1); w.tr != nil && chunks > 0 {
			// Per chunk of the write, whichever transfer it belonged to; the
			// configured delay, not the time slept, is folded in, so
			// priorities reflect the link and not the pacing clock.
			w.s.link.observe(w.took/time.Duration(chunks) + w.delay)
			// The accepted prefix of the write is on the wire (or scripted
			// as dropped, which sequential sends also count as progress);
			// advance the transfer that far even when the tail failed — the
			// reconnect hello's resume offer recovers the rest. Only the
			// owning connection may advance the transfer, a handed-off one
			// is no longer the port's, and a prefix ending in an earlier
			// transfer of the turn left it where it was.
			last := &w.msgs[w.accepted-1]
			if w.s.c == w.c && w.s.active == w.tr && last.Task == w.tr.task.ID {
				w.tr.offset = last.Offset + len(last.Data)
			}
		}
		if w.err != nil {
			if len(w.keys) > 0 {
				n.stats.SendErrors++ // the child replays those results and is acked again
			}
			n.markChildGone(w.s, w.c, now)
		}
	}
}
