package protocol

import (
	"cmp"
	"math/rand/v2"
	"slices"
)

// Slot is one child as its parent's send port sees it. Child and Key are
// the driver's: Child names the child, uniquely and ≥ 0 (the engine's node
// ID, the live runtime's session ID), and Key is its priority under the
// static orders, lower first (c under BandwidthCentric, w under
// ComputeCentric, a measured link time live). Drivers list a child by
// appending a fresh slot, and re-sort after changing a Key (Node.Sort,
// Node.Relist). Everything else is the node's, changed only by its inputs.
type Slot struct {
	Key int64
	// Pending counts the child's requests not yet answered by a send; Since
	// is when the oldest of them arrived (FCFS reads it).
	Pending int64
	Since   int64
	// ShelfSince is the request time behind a shelved transfer (FCFS).
	ShelfSince int64
	Child      int32
	// Inflight is true while a transfer toward the child is on its way, in
	// flight or shelved: the child's receiving buffer is reserved. Shelved
	// marks the shelved case: resumable, it competes with fresh sends.
	Inflight, Shelved bool
	// Down marks a child that cannot be served: unreachable, or no longer
	// part of the platform.
	Down bool
}

// actionable reports whether the port has something to send the child:
// its shelved transfer, or, when the node can start a fresh send, a task
// for a pending request with no transfer already on the way.
func (s *Slot) actionable(canFresh bool) bool {
	return !s.Down && (s.Shelved || canFresh && s.Pending > 0 && !s.Inflight)
}

// Node is one platform node's protocol, the paper's per-node rules over
// local state only: its task buffers, its compute port, and its send port
// with one slot per child. It is a state machine with no clock, no I/O and
// no goroutine. A driver — the discrete-event engine, or a live node's
// owner goroutine — feeds it the node's inputs (a task arrived, k requests
// from a child, a send landed, a compute finished, a child went down or up
// or left) and carries out what it decides (start a compute, start, resume
// or shelve a send, issue requests, grow, retire a buffer). Where FCFS or
// Random need a time or a random draw, the driver passes one in.
//
// The exported counters are for drivers to read; only the methods change
// them.
type Node struct {
	// Capacity is the node's buffer count and MaxCapacity its high-water;
	// Occupied counts the tasks in the buffers (at the root, the pool) and
	// MaxOccupied their high-water (arrivals only; the root's pool is
	// refilled, not received).
	Capacity, MaxCapacity int64
	Occupied, MaxOccupied int64
	// Computing is true while the compute port holds a task.
	Computing bool
	// MaxShelved is the most transfers ever shelved at once.
	MaxShelved int
	// Slots are the children, in priority order under the static orders
	// (BandwidthCentric, ComputeCentric: ascending Key, ties as the driver
	// sorts them) and in the driver's order under the others.
	Slots []Slot

	order                              Order
	root, interruptible, growOn, decay bool
	initial                            int64

	sending   int   // slot of the send in flight; -1: the port is free
	sendSince int64 // request time behind it (FCFS)
	shelves   int   // slots with a shelved transfer
	waiting   int   // slots with a pending request, plus unlisted requesters
	rrNext    int   // round-robin cursor into Slots

	// decayStreak counts completions since the buffers last ran empty;
	// pendingDecay buffers are retired as they free.
	decayStreak, pendingDecay int64
}

// Take is what becomes of the buffer a node frees by taking a task for its
// compute port or a send (Section 3.1). The root takes from its pool and
// frees nothing.
type Take struct {
	// Request: the freed buffer asks the parent for a refill. Retired:
	// decay retires it instead (its capacity is already gone).
	Request, Retired bool
	// Grew: G1 — the buffers just ran all empty while a child waits, so the
	// node grew one buffer, which requests too.
	Grew bool
}

// Send is the send port's decision.
type Send struct {
	// Slot is the child the port serves next; -1 when it has nothing new to
	// do (idle, or the send in flight continues).
	Slot int
	// Resume: Slot's shelved transfer resumes; otherwise a fresh send to it
	// started, and Take says what became of the buffer its task left.
	Resume bool
	Take   Take
	// Shelved is the slot whose in-flight send was shelved to make way (-1:
	// none). It is an interruption only under the interruptible protocol.
	Shelved int
}

// Reset readies n for a run under p, keeping Slots' storage for the
// driver to refill. The root holds the pool: it never requests, grows or
// decays.
func (n *Node) Reset(p Protocol, root bool) {
	slots := n.Slots[:0]
	*n = Node{
		Capacity:      int64(p.InitialBuffers),
		MaxCapacity:   int64(p.InitialBuffers),
		Slots:         slots,
		order:         p.Order,
		root:          root,
		interruptible: p.Interruptible,
		growOn:        p.Grow,
		decay:         p.Decay,
		initial:       int64(p.InitialBuffers),
		sending:       -1,
	}
}

// Initial is the node's startup request count: one per empty buffer, none
// at the root.
func (n *Node) Initial() int64 {
	if n.root {
		return 0
	}
	return n.Capacity
}

// Sending returns the slot whose send is in flight, or -1.
func (n *Node) Sending() int { return n.sending }

// Refill adds k tasks that did not arrive by transfer — the root's pool
// opening, tasks requeued from a lost subtree.
func (n *Node) Refill(k int64) { n.Occupied += k }

// Arrived takes a transfer that landed in a buffer.
func (n *Node) Arrived() {
	n.Occupied++
	n.MaxOccupied = max(n.MaxOccupied, n.Occupied)
}

// Request registers k requests from slot i at time now. A request from a
// child the node no longer lists (i < 0) still counts as a child waiting:
// it can never be served, but it is what the node observed.
func (n *Node) Request(i int, k, now int64) {
	if i < 0 {
		n.waiting++
		return
	}
	s := &n.Slots[i]
	if s.Pending == 0 {
		s.Since = now
		n.waiting++
	}
	s.Pending += k
}

// Reconcile sets slot i's state as a reconnecting child reports it: pending
// requests unanswered, and whether a transfer toward it is back on the
// port (shelved, to resume) or gone.
func (n *Node) Reconcile(i int, pending, now int64, onPort bool) {
	s := &n.Slots[i]
	switch {
	case s.Pending == 0 && pending > 0:
		s.Since = now
		n.waiting++
	case s.Pending > 0 && pending == 0:
		n.waiting--
	}
	s.Pending = pending
	if n.sending == i {
		n.shelve()
	}
	if onPort && !s.Shelved {
		n.shelves++
		n.MaxShelved = max(n.MaxShelved, n.shelves)
	} else if !onPort && s.Shelved {
		n.shelves--
	}
	s.Inflight, s.Shelved = onPort, onPort
}

// Compute starts the compute port on a buffered task when it is idle and
// a task is there; ok reports whether it did.
func (n *Node) Compute() (t Take, ok bool) {
	if n.Computing || n.Occupied == 0 {
		return Take{}, false
	}
	t = n.take()
	n.Computing = true
	return t, true
}

// ComputeDone frees the compute port and advances the decay window: a
// long enough streak of completions without the buffers running empty
// marks one grown buffer for retirement. Growth event G3 is its own input
// (G3), since a driver may act on the completion in between.
func (n *Node) ComputeDone() {
	n.Computing = false
	if n.root || !n.decay {
		return
	}
	if n.Capacity <= n.initial {
		n.decayStreak = 0
		return
	}
	if n.decayStreak++; n.decayStreak >= DecayWindow {
		n.pendingDecay++
		n.decayStreak = 0
	}
}

// G3 applies growth event G3 after a completed computation: with the
// buffers all empty the node grows one buffer, whose request the driver
// issues. It reports whether it grew.
func (n *Node) G3() bool {
	return n.Occupied == 0 && n.grow()
}

// SendDone takes the landing (or, live, the hand-off) of the send in
// flight: the port is free and the child's buffer filled. It reports G2 —
// a child still waits and the buffers are all empty, so the node grew one
// buffer, whose request the driver issues.
func (n *Node) SendDone() (grew bool) {
	n.Slots[n.sending].Inflight = false
	n.sending = -1
	return n.Occupied == 0 && n.waiting > 0 && n.grow()
}

// DecideSend is the send port's move. An idle port serves the
// highest-priority actionable child: a shelved transfer resumes, a
// pending request starts a fresh send (consuming it and a buffered task).
// A busy port keeps its send unless the protocol is interruptible and a
// child of strictly higher priority is actionable: then the send is
// shelved and that child served. On an exact tie the send in flight keeps
// the port. now stamps request ages (FCFS); rng draws for Random.
func (n *Node) DecideSend(now int64, rng *rand.Rand) Send {
	d := Send{Slot: -1, Shelved: -1}
	canFresh := n.waiting > 0 && n.Occupied > 0
	if n.sending >= 0 && !n.interruptible || !canFresh && n.shelves == 0 {
		return d
	}
	best, shelf := -1, false
	if n.order == BandwidthCentric || n.order == ComputeCentric {
		// The slots are in priority order: the first actionable one.
		for i := range n.Slots {
			if s := &n.Slots[i]; s.actionable(canFresh) {
				best, shelf = i, s.Shelved
				break
			}
		}
	} else {
		best, shelf = n.scan(canFresh, rng)
	}
	if best < 0 {
		return d
	}
	if n.sending >= 0 {
		if n.key(best, shelf) >= n.key(n.sending, false) {
			return d
		}
		d.Shelved = n.sending
		n.shelve()
	}
	d.Slot, d.Resume = best, shelf
	if shelf {
		s := &n.Slots[best]
		s.Shelved = false
		n.shelves--
		n.sending, n.sendSince = best, s.ShelfSince
	} else {
		d.Take = n.Start(best, now)
	}
	return d
}

// Start begins a fresh send to slot i on the free port, consuming one of
// its requests and a buffered task. DecideSend starts the sends it picks;
// a driver calls Start directly only to serve the same child again in one
// port turn, as the next decision would.
func (n *Node) Start(i int, now int64) Take {
	s := &n.Slots[i]
	since := s.Since
	if s.Pending--; s.Pending == 0 {
		n.waiting--
	} else {
		// The rest are at least as old; now bounds the oldest from above.
		s.Since = now
	}
	s.Inflight = true
	t := n.take()
	n.sending, n.sendSince = i, since
	return t
}

// ChildDown marks slot i unreachable. A send in flight to it is shelved,
// not interrupted: the port is free, and the transfer may resume once the
// child is back.
func (n *Node) ChildDown(i int) {
	n.Slots[i].Down = true
	if n.sending == i {
		n.shelve()
	}
}

// ChildUp marks slot i reachable again.
func (n *Node) ChildUp(i int) { n.Slots[i].Down = false }

// Remove deletes slot i, reporting whether a send to it was in flight or
// shelved; the transfer is the driver's to reclaim.
func (n *Node) Remove(i int) (sending, shelved bool) {
	s := n.Slots[i]
	switch {
	case n.sending == i:
		n.sending, sending = -1, true
	case n.sending > i:
		n.sending--
	}
	if s.Shelved {
		n.shelves--
	}
	if s.Pending > 0 {
		n.waiting--
	}
	n.Slots = slices.Delete(n.Slots, i, i+1)
	return sending, s.Shelved
}

// Relist replaces the slots with a list that keeps every current slot's
// state, in the driver's new order (the engine re-lists a node's children
// when a subtree is attached under it).
func (n *Node) Relist(slots []Slot) {
	c := n.sendingChild()
	n.Slots = slots
	n.follow(c)
}

// Key is a child's priority key under order o, from its link's c and its
// w: c under BandwidthCentric, w under ComputeCentric, and 0 under the
// orders without a static key. A simulated node lists each child as a
// Slot with this key and then calls Node.Sort.
func Key(o Order, c, w int64) int64 {
	switch o {
	case BandwidthCentric:
		return c
	case ComputeCentric:
		return w
	}
	return 0
}

// Rand is the one random stream a simulated run under the Random order
// draws from, every node's DecideSend in turn, seeded by the run's seed.
func Rand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
}

// Sort puts the slots in priority order under the orders with a static
// key — ascending Key, ties by Child — keeping track of the send in
// flight. The other orders keep the driver's order.
func (n *Node) Sort() {
	if n.order != BandwidthCentric && n.order != ComputeCentric {
		return
	}
	c := n.sendingChild()
	slices.SortFunc(n.Slots, func(a, b Slot) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Child, b.Child))
	})
	n.follow(c)
}

// sendingChild names the child of the send in flight (-1: none).
func (n *Node) sendingChild() int32 {
	if n.sending < 0 {
		return -1
	}
	return n.Slots[n.sending].Child
}

// follow points the send in flight at child c's slot after the slots moved.
func (n *Node) follow(c int32) {
	if n.sending < 0 {
		return
	}
	for i := range n.Slots {
		if n.Slots[i].Child == c {
			n.sending = i
			return
		}
	}
	panic("protocol: the send in flight lost its slot")
}

// Depart clears a node that left the platform with its subtree: its
// buffers, ports, and every request and shelf of its children, which left
// with it. The driver reclaims the tasks first.
func (n *Node) Depart() {
	n.Occupied, n.Computing, n.sending = 0, false, -1
	for i := range n.Slots {
		n.Slots[i].Pending, n.Slots[i].Shelved = 0, false
	}
	n.shelves, n.waiting = 0, 0
}

// take removes one task from the buffers (the root's pool), firing the
// freed buffer's request, the decay rule and G1.
func (n *Node) take() (t Take) {
	if n.Occupied <= 0 {
		panic("protocol: take from empty buffers")
	}
	n.Occupied--
	if n.root {
		return t
	}
	if n.Occupied == 0 {
		// Starvation observed: the decay window restarts.
		n.decayStreak = 0
	}
	if n.pendingDecay > 0 && n.Capacity > n.initial {
		n.pendingDecay--
		n.Capacity--
		t.Retired = true
	} else {
		t.Request = true
	}
	t.Grew = n.Occupied == 0 && n.waiting > 0 && n.grow()
	return t
}

// grow adds one buffer under the growth protocol. The root never grows.
func (n *Node) grow() bool {
	if n.root || !n.growOn {
		return false
	}
	n.Capacity++
	n.MaxCapacity = max(n.MaxCapacity, n.Capacity)
	return true
}

// shelve sets the send in flight aside with its request time.
func (n *Node) shelve() {
	s := &n.Slots[n.sending]
	s.Shelved, s.ShelfSince = true, n.sendSince
	n.shelves++
	n.MaxShelved = max(n.MaxShelved, n.shelves)
	n.sending = -1
}

// key is slot i's priority key (lower first); shelf says whether its
// shelved transfer is the candidate. For the send in flight, FCFS reads
// the request time behind it.
func (n *Node) key(i int, shelf bool) int64 {
	switch n.order {
	case BandwidthCentric, ComputeCentric:
		return n.Slots[i].Key
	case FCFS:
		switch {
		case i == n.sending:
			return n.sendSince
		case shelf:
			return n.Slots[i].ShelfSince
		}
		return n.Slots[i].Since
	}
	panic("protocol: priority key under an order without one")
}

// scan returns the actionable slot the orders without a static key pick,
// and whether its shelved transfer is the candidate; -1 when there is none.
func (n *Node) scan(canFresh bool, rng *rand.Rand) (best int, shelf bool) {
	best = -1
	switch n.order {
	case RoundRobin:
		k := len(n.Slots)
		for i := 0; i < k; i++ {
			j := (n.rrNext + i) % k
			if s := &n.Slots[j]; s.actionable(canFresh) {
				n.rrNext = (n.rrNext + i + 1) % k
				return j, s.Shelved
			}
		}
	case Random:
		count := 0
		for i := range n.Slots {
			s := &n.Slots[i]
			if !s.actionable(canFresh) {
				continue
			}
			if count++; rng.IntN(count) == 0 {
				best, shelf = i, s.Shelved
			}
		}
	case FCFS:
		var oldest int64
		for i := range n.Slots {
			s := &n.Slots[i]
			if !s.actionable(canFresh) {
				continue
			}
			since := s.Since
			if s.Shelved {
				since = s.ShelfSince
			}
			if best < 0 || cmp.Or(cmp.Compare(since, oldest), cmp.Compare(s.Child, n.Slots[best].Child)) < 0 {
				best, shelf, oldest = i, s.Shelved, since
			}
		}
	}
	return best, shelf
}
