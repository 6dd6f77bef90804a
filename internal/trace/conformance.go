package trace

// Protocol-conformance replay: the protocol core's third driver, after the
// engine and a live node's owner. It runs one protocol.Node per platform
// node through an event stream, feeding each the inputs the stream
// records, and holds the stream to the core's rules. The engine test suite
// replays simulator streams in decide mode; cmd/bwtrace replays merged
// live flight-recorder timelines in apply mode.

import (
	"fmt"
	"slices"

	"bwcs/internal/protocol"
	"bwcs/internal/tree"
)

// Replay checks an event stream against the protocol core.
type Replay struct {
	// Tree, Protocol, Tasks (the root's pool) and Seed (the Random order's)
	// are the run's own inputs. Each node lists its children by the
	// protocol's rule (protocol.Key, Node.Sort).
	Tree     *tree.Tree
	Protocol protocol.Protocol
	Tasks    int64
	Seed     uint64
	// CheckPriority replays in decide mode, for streams whose priority
	// keys are the tree's weights (the engine's). Every node starts with
	// the requests its Initial owes, which the engine does not record.
	// Every compute and send start, with the shelve before a preemption,
	// must be what the core's Compute and DecideSend decide at that point,
	// and every Request and Grow one that a freed buffer, G2 or G3 owed,
	// in the order the engine issues them.
	//
	// Off, the replay applies the stream (apply mode, for live streams,
	// whose keys are measured): startup requests are Request events, and a
	// fresh send must be one the core allows — a task on hand, a pending
	// request, no transfer already on the way toward the child.
	CheckPriority bool
	// CheckDrain requires the replay to end with every task computed, no
	// transfer on the way and nothing owed — true for a completed
	// fault-free run.
	CheckDrain bool

	// Fresh counts the fresh send starts the last Run saw; a replay of a
	// working run that moved any task at all has Fresh > 0.
	Fresh int
}

// Run replays the events in order and returns the first violation, or nil
// if the stream conforms.
func (rp *Replay) Run(events []Event) error {
	t, decide := rp.Tree, rp.CheckPriority
	nodes := make([]protocol.Node, t.Len())
	for id := range nodes {
		n := &nodes[id]
		n.Reset(rp.Protocol, tree.NodeID(id) == t.Root())
		for _, k := range t.Children(tree.NodeID(id)) {
			n.Slots = append(n.Slots, protocol.Slot{Child: int32(k), Key: protocol.Key(rp.Protocol.Order, t.C(k), t.W(k))})
		}
		n.Sort()
	}
	// slot returns child c's slot at p, or -1 if c is not p's child.
	slot := func(p, c tree.NodeID) int {
		return slices.IndexFunc(nodes[p].Slots, func(s protocol.Slot) bool { return s.Child == int32(c) })
	}
	nodes[t.Root()].Refill(rp.Tasks)
	for id := 1; decide && id < len(nodes); id++ {
		p := t.Parent(tree.NodeID(id))
		nodes[p].Request(slot(p, tree.NodeID(id)), nodes[id].Initial(), 0)
	}
	rng := protocol.Rand(rp.Seed)

	// owed is what the nodes still owe, the next one due last: a freed
	// buffer's request, a growth and then its request.
	var owed []Event
	owe := func(n tree.NodeID, tk protocol.Take) {
		if tk.Grew {
			owed = append(owed, Event{Kind: Grow, Node: n})
		}
		if tk.Request {
			owed = append(owed, Event{Kind: Request, Node: n})
		}
	}

	rp.Fresh = 0
	for i := 0; i < len(events); i++ {
		e := events[i]
		if !t.Valid(e.Node) {
			return fmt.Errorf("trace: unknown node (%s)", e)
		}
		n, c, now := &nodes[e.Node], slot(e.Node, e.Peer), int64(e.At)
		switch e.Kind {
		case Request, Grow:
			if decide {
				k := len(owed) - 1
				if k < 0 || owed[k] != (Event{Kind: e.Kind, Node: e.Node}) {
					return fmt.Errorf("trace: %s that no freed buffer, G2 or G3 owed (%s)", e.Kind, e)
				}
				if owed = owed[:k]; e.Kind == Grow {
					owed = append(owed, Event{Kind: Request, Node: e.Node})
				}
			}
			switch p := t.Parent(e.Node); {
			case e.Kind == Grow:
			case p < 0:
				return fmt.Errorf("trace: the root requests (%s)", e)
			case decide:
				nodes[p].Request(slot(p, e.Node), 1, now)
			default: // a live request batch carries its count
				nodes[p].Request(slot(p, e.Node), max(e.Value, 1), now)
			}
		case ComputeStart:
			tk, ok := n.Compute()
			if !ok {
				return fmt.Errorf("trace: node %d computing without a task, or twice (%s)", e.Node, e)
			}
			if decide {
				owe(e.Node, tk)
			}
		case ComputeDone:
			if !n.Computing {
				return fmt.Errorf("trace: node %d finishes a computation it never started (%s)", e.Node, e)
			}
			if n.ComputeDone(); decide && n.G3() {
				owed = append(owed, Event{Kind: Grow, Node: e.Node})
			}
		case SendStart, SendResume, SendInterrupt:
			switch {
			case c < 0:
				return fmt.Errorf("trace: %d sends to %d, not its child (%s)", e.Node, e.Peer, e)
			case decide:
				start, d := e, n.DecideSend(now, rng)
				if e.Kind == SendInterrupt {
					if i++; d.Shelved != c || i == len(events) || events[i].Node != e.Node || events[i].Kind != SendStart && events[i].Kind != SendResume {
						return fmt.Errorf("trace: interrupt that is not the core's preemption (%s)", e)
					}
					start = events[i]
				} else if d.Shelved >= 0 {
					return fmt.Errorf("trace: the core shelves the send to %d first (%s)", n.Slots[d.Shelved].Child, e)
				}
				if d.Slot != slot(e.Node, start.Peer) || d.Resume != (start.Kind == SendResume) {
					child := int32(-1)
					if d.Slot >= 0 {
						child = n.Slots[d.Slot].Child
					}
					return fmt.Errorf("trace: the core decides child %d (resume %v) (%s)", child, d.Resume, start)
				}
				if !d.Resume {
					owe(e.Node, d.Take)
					rp.Fresh++
				}
			case e.Kind != SendStart:
				if !n.Slots[c].Inflight {
					return fmt.Errorf("trace: %s without a transfer on the way to %d (%s)", e.Kind, e.Peer, e)
				}
			case n.Occupied == 0 || n.Slots[c].Pending < 1 || n.Slots[c].Inflight:
				return fmt.Errorf("trace: send to unserviceable child %d (tasks=%d pending=%d inflight=%v) (%s)",
					e.Peer, n.Occupied, n.Slots[c].Pending, n.Slots[c].Inflight, e)
			default:
				n.Start(c, now)
				rp.Fresh++
			}
		case SendDone:
			switch {
			case c < 0 || !n.Slots[c].Inflight || decide && n.Sending() != c:
				return fmt.Errorf("trace: delivery without a transfer on the way to %d (%s)", e.Peer, e)
			case !decide: // live's port is pipelined: the hand-off clears its own slot
				n.Reconcile(c, n.Slots[c].Pending, now, false)
			case n.SendDone(): // G2
				owed = append(owed, Event{Kind: Grow, Node: e.Node})
			}
			nodes[e.Peer].Arrived()
		case Requeue:
			// Recovery: the task of the transfer toward Peer, in flight or
			// delivered, returns to the pool (a copy is dedupe's business).
			if c < 0 {
				return fmt.Errorf("trace: requeue from %d, not a child of %d (%s)", e.Peer, e.Node, e)
			}
			n.Reconcile(c, n.Slots[c].Pending, now, false)
			n.Refill(1)
		default:
			return fmt.Errorf("trace: unknown event (%s)", e)
		}
	}
	if k := len(owed); rp.CheckDrain && k > 0 {
		return fmt.Errorf("trace: node %d never issued the %s it owed", owed[k-1].Node, owed[k-1].Kind)
	}
	for id := 0; rp.CheckDrain && id < len(nodes); id++ {
		n := &nodes[id]
		if n.Occupied != 0 || n.Computing {
			return fmt.Errorf("trace: node %d ends holding %d tasks (computing %v)", id, n.Occupied, n.Computing)
		}
		for _, s := range n.Slots {
			if s.Inflight {
				return fmt.Errorf("trace: transfer to %d never completed", s.Child)
			}
		}
	}
	return nil
}
