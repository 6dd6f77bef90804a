package live

// taskPool is a node's buffer of tasks awaiting dispatch: the FB task
// buffers of an interior node, the whole application at the root. It is
// indexed by application so that a dispatch costs the same whatever is
// buffered: one FIFO ring per application tag present, every task stamped
// with a monotone arrival sequence. push, pop and the pick between
// applications are O(applications present) and allocate nothing once the
// rings have grown; a popped slot is zeroed, so the pool never pins a
// dispatched payload. A single-application node is the one-tag case of
// the same code.
//
// The zero value is an empty pool in which every application weighs 1.
// A pool is not safe for concurrent use; a Node's owner goroutine holds its own.
type taskPool struct {
	weights map[string]int64 // Config.AppWeights; never written
	// credit is the weighted-round-robin ledger over application tags:
	// each pick among several applications credits every one present by
	// its weight and debits the chosen one by the round total (smooth
	// WRR). Credit outlives an application's absence from the pool.
	credit map[string]int64
	apps   []appQueue   // applications with a task buffered, in no particular order
	spare  [][]poolSlot // emptied rings, reused by the next application to appear
	seq    uint64       // arrival stamps issued so far
	size   int          // tasks buffered
	peak   int          // most tasks ever buffered at once (Stats.MaxQueued)
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
	n    int // tasks queued
}

// at addresses the i-th oldest slot of the ring.
func (q *appQueue) at(i int) *poolSlot {
	if i += q.head; i >= len(q.ring) {
		i -= len(q.ring)
	}
	return &q.ring[i]
}

// reserve makes room for k more tasks. A ring that must grow at least
// doubles, so task-by-task growth is amortized, and is unrolled to start
// at index 0; an empty one grows to exactly k.
func (q *appQueue) reserve(k int) {
	if q.n+k <= len(q.ring) {
		return
	}
	ring := make([]poolSlot, max(q.n+k, 2*len(q.ring)))
	m := copy(ring, q.ring[q.head:])
	copy(ring[m:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// len is the number of tasks buffered.
func (p *taskPool) len() int { return p.size }

// push buffers t behind every task already present: a fresh arrival and
// a requeued task alike join the back.
func (p *taskPool) push(t Task) {
	q := p.queue(t.App)
	q.reserve(1)
	p.seq++
	*q.at(q.n) = poolSlot{task: t, seq: p.seq}
	q.n++
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
		p.queue(app).reserve(k)
	}
	for _, t := range tasks {
		p.push(t)
	}
}

// queue finds app's queue, opening one on a spare ring when app has
// nothing buffered.
func (p *taskPool) queue(app string) *appQueue {
	for i := range p.apps {
		if p.apps[i].app == app {
			return &p.apps[i]
		}
	}
	var ring []poolSlot
	if k := len(p.spare); k > 0 {
		ring, p.spare = p.spare[k-1], p.spare[:k-1]
	}
	p.apps = append(p.apps, appQueue{app: app, ring: ring})
	return &p.apps[len(p.apps)-1]
}

// pop removes the next task to dispatch: the oldest buffered task of the
// application pick chooses. Callers guarantee the pool is non-empty.
func (p *taskPool) pop() Task {
	i := p.pick()
	q := &p.apps[i]
	slot := q.at(0)
	t := slot.task
	*slot = poolSlot{}
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	p.size--
	if q.n == 0 {
		p.spare = append(p.spare, q.ring)
		last := len(p.apps) - 1
		p.apps[i] = p.apps[last]
		p.apps[last] = appQueue{}
		p.apps = p.apps[:last]
	}
	return t
}

// pick chooses whose task moves next and returns its index in p.apps. A
// sole application is served in plain FIFO order (the engine's) and the
// credit ledger is left alone. Among several the choice is smooth
// weighted round-robin: each application present earns its weight in
// credit, the richest is served — on a tie, the one whose oldest buffered
// task arrived first — and pays back the round total.
func (p *taskPool) pick() int {
	if len(p.apps) == 1 {
		return 0
	}
	if p.credit == nil {
		p.credit = make(map[string]int64)
	}
	var (
		total      int64
		best       = -1
		bestCredit int64
		bestSeq    uint64
	)
	for i := range p.apps {
		q := &p.apps[i]
		w := p.weights[q.app]
		if w <= 0 {
			w = 1 // missing or non-positive configures as 1
		}
		c := p.credit[q.app] + w
		p.credit[q.app] = c
		total += w
		if s := q.at(0).seq; best < 0 || c > bestCredit || (c == bestCredit && s < bestSeq) {
			best, bestCredit, bestSeq = i, c, s
		}
	}
	p.credit[p.apps[best].app] -= total
	return best
}

// each calls f on every buffered task, application by application.
func (p *taskPool) each(f func(Task)) {
	for i := range p.apps {
		q := &p.apps[i]
		for k := 0; k < q.n; k++ {
			f(q.at(k).task)
		}
	}
}
