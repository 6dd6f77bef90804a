package live

// taskPool is a node's buffer of tasks awaiting dispatch: the FB task
// buffers of an interior node, the whole application at the root. It is
// one FIFO ring, so a dispatch costs the same whatever is buffered: push
// and pop are O(1) and allocate nothing once the ring has grown; a popped
// slot is zeroed, so the pool never pins a dispatched payload. The zero
// value is an empty pool. A pool is not safe for concurrent use; a Node's
// owner goroutine holds its own.
type taskPool struct {
	ring []Task
	head int // index of the oldest task
	size int // tasks buffered
	peak int // most tasks ever buffered at once (Stats.MaxQueued)
}

// at addresses the i-th oldest slot of the ring.
func (p *taskPool) at(i int) *Task {
	if i += p.head; i >= len(p.ring) {
		i -= len(p.ring)
	}
	return &p.ring[i]
}

// reserve makes room for k more tasks. A ring that must grow at least
// doubles, so task-by-task growth is amortized, and is unrolled to start
// at index 0; an empty one grows to exactly k.
func (p *taskPool) reserve(k int) {
	if p.size+k <= len(p.ring) {
		return
	}
	ring := make([]Task, max(p.size+k, 2*len(p.ring)))
	m := copy(ring, p.ring[p.head:])
	copy(ring[m:], p.ring[:p.head])
	p.ring, p.head = ring, 0
}

// len is the number of tasks buffered.
func (p *taskPool) len() int { return p.size }

// push buffers t behind every task already present: a fresh arrival and
// a requeued task alike join the back.
func (p *taskPool) push(t Task) {
	p.reserve(1)
	*p.at(p.size) = t
	p.size++
	p.peak = max(p.peak, p.size)
}

// pushAll buffers tasks in order, sizing the ring for them first: the
// root's pool takes a whole application at once, and a ring grown to fit
// by doubling would hold up to twice the memory.
func (p *taskPool) pushAll(tasks []Task) {
	p.reserve(len(tasks))
	for _, t := range tasks {
		p.push(t)
	}
}

// pop removes the oldest buffered task. Callers guarantee the pool is
// non-empty.
func (p *taskPool) pop() Task {
	slot := p.at(0)
	t := *slot
	*slot = Task{}
	if p.head++; p.head == len(p.ring) {
		p.head = 0
	}
	p.size--
	return t
}

// remove drops every buffered task drop reports true for, keeping the
// others in order, and returns how many it dropped. Freed slots are
// zeroed, as popped ones are.
func (p *taskPool) remove(drop func(Task) bool) int {
	kept := 0
	for k := 0; k < p.size; k++ {
		if t := *p.at(k); !drop(t) {
			*p.at(kept) = t
			kept++
		}
	}
	for k := kept; k < p.size; k++ {
		*p.at(k) = Task{}
	}
	dropped := p.size - kept
	p.size = kept
	return dropped
}

// each calls f on every buffered task, oldest first.
func (p *taskPool) each(f func(Task)) {
	for k := 0; k < p.size; k++ {
		f(*p.at(k))
	}
}
