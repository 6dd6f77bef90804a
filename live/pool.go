package live

import "bwcs/internal/protocol"

// taskPool is a node's buffer of tasks awaiting dispatch: the FB task
// buffers of an interior node, the whole application at the root. It is
// indexed by application so that a dispatch costs the same whatever is
// buffered: one FIFO ring per application tag seen, every task stamped
// with a monotone arrival sequence. push, pop and the tenant picker's
// choice between applications are O(applications seen) and allocate
// nothing once the rings have grown; a popped slot is zeroed, so the pool
// never pins a dispatched payload. A single-application node is the
// one-tag case of the same code.
//
// Every application weighs 1, so the picker alternates between the
// applications present. The zero value is an empty pool. A pool is not
// safe for concurrent use; a Node's owner goroutine holds its own.
type taskPool struct {
	// queues holds one queue per application seen, in first-seen order;
	// count and credit are indexed alike: each application's buffered
	// tasks and tenant-picker ledger entry. An application keeps its ring
	// and its credit while it has nothing buffered.
	queues []appQueue
	count  []int64
	credit []int64
	seq    uint64 // arrival stamps issued so far
	size   int    // tasks buffered
	peak   int    // most tasks ever buffered at once (Stats.MaxQueued)
}

// poolSlot is one buffered task and its arrival stamp.
type poolSlot struct {
	task Task
	seq  uint64
}

// appQueue is one application's buffered tasks, oldest first, in a ring.
type appQueue struct {
	app  string
	ring []poolSlot
	head int // index of the oldest task
}

// at addresses the i-th oldest slot of the ring.
func (q *appQueue) at(i int) *poolSlot {
	if i += q.head; i >= len(q.ring) {
		i -= len(q.ring)
	}
	return &q.ring[i]
}

// reserve makes room for k more tasks beside the n queued. A ring that
// must grow at least doubles, so task-by-task growth is amortized, and is
// unrolled to start at index 0; an empty one grows to exactly k.
func (q *appQueue) reserve(n, k int) {
	if n+k <= len(q.ring) {
		return
	}
	ring := make([]poolSlot, max(n+k, 2*len(q.ring)))
	m := copy(ring, q.ring[q.head:])
	copy(ring[m:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// len is the number of tasks buffered.
func (p *taskPool) len() int { return p.size }

// push buffers t behind every task already present: a fresh arrival and
// a requeued task alike join the back.
func (p *taskPool) push(t Task) {
	i := p.queue(t.App)
	q, n := &p.queues[i], int(p.count[i])
	q.reserve(n, 1)
	p.seq++
	*q.at(n) = poolSlot{task: t, seq: p.seq}
	p.count[i]++
	p.size++
	if p.size > p.peak {
		p.peak = p.size
	}
}

// pushAll buffers tasks in order, sizing each application's ring for its
// share first: the root's pool takes a whole application at once, and a
// ring grown to fit by doubling would hold up to twice the memory.
func (p *taskPool) pushAll(tasks []Task) {
	incoming := make(map[string]int)
	for _, t := range tasks {
		incoming[t.App]++
	}
	for app, k := range incoming {
		i := p.queue(app)
		p.queues[i].reserve(int(p.count[i]), k)
	}
	for _, t := range tasks {
		p.push(t)
	}
}

// queue finds app's index, opening a queue when app is new to the pool.
func (p *taskPool) queue(app string) int {
	for i := range p.queues {
		if p.queues[i].app == app {
			return i
		}
	}
	p.queues = append(p.queues, appQueue{app: app})
	p.count = append(p.count, 0)
	p.credit = append(p.credit, 0)
	return len(p.queues) - 1
}

// pop removes the next task to dispatch: the oldest buffered task of the
// application the tenant picker chooses among those with a task here, ties
// to the one whose oldest task arrived first. Callers guarantee the pool
// is non-empty.
func (p *taskPool) pop() Task {
	i := protocol.PickTenant(p.credit, p.count, func(a int) uint64 { return p.queues[a].at(0).seq })
	q := &p.queues[i]
	slot := q.at(0)
	t := slot.task
	*slot = poolSlot{}
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	p.count[i]--
	p.size--
	return t
}

// each calls f on every buffered task, application by application.
func (p *taskPool) each(f func(Task)) {
	for i := range p.queues {
		q := &p.queues[i]
		for k := 0; k < int(p.count[i]); k++ {
			f(q.at(k).task)
		}
	}
}
