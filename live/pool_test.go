package live

import (
	"fmt"
	"math/rand"
	"testing"
)

// slicePool is the buffer the indexed pool replaced — one slice in
// arrival order, scanned on every pop — kept as the order oracle: pop is
// the old Node.popTaskLocked verbatim but for the receiver. Its pop costs
// O(buffered); that is the point.
type slicePool struct {
	buffer    []Task
	appCredit map[string]int64
	peak      int
}

func (n *slicePool) push(t Task) {
	n.buffer = append(n.buffer, t)
	if q := len(n.buffer); q > n.peak {
		n.peak = q
	}
}

func (n *slicePool) pop() Task {
	mixed := false
	for _, t := range n.buffer[1:] {
		if t.App != n.buffer[0].App {
			mixed = true
			break
		}
	}
	if !mixed {
		t := n.buffer[0]
		n.buffer = n.buffer[1:]
		return t
	}
	if n.appCredit == nil {
		n.appCredit = make(map[string]int64)
	}
	first := make(map[string]int) // app -> oldest buffered index
	order := make([]string, 0, 4) // apps in buffer order, for deterministic ties
	for i, t := range n.buffer {
		if _, ok := first[t.App]; !ok {
			first[t.App] = i
			order = append(order, t.App)
		}
	}
	var total int64
	best := ""
	for _, app := range order {
		n.appCredit[app]++ // every application weighs 1
		total++
		if best == "" || n.appCredit[app] > n.appCredit[best] {
			best = app
		}
	}
	n.appCredit[best] -= total
	i := first[best]
	t := n.buffer[i]
	n.buffer = append(n.buffer[:i], n.buffer[i+1:]...)
	return t
}

// creditOf is app's entry in p's tenant ledger; 0 for an application the
// pool has not seen, as in the oracle's map.
func (p *taskPool) creditOf(app string) int64 {
	for i := range p.queues {
		if p.queues[i].app == app {
			return p.credit[i]
		}
	}
	return 0
}

// TestPoolMatchesSliceScan drives the pool and the slice-and-scan oracle
// with the same seeded sequence of pushes (single and bulk), pops and
// requeues over one to four application tags: the same
// task must come out of every pop, with the same credit ledger, length
// and high-water mark on both sides. The load swings between filling and
// draining, so tags leave the pool and return with their credit, and
// rings change hands.
func TestPoolMatchesSliceScan(t *testing.T) {
	// No untagged tasks here: the oracle used "" as its nothing-chosen-yet
	// mark and so passed over the untagged application whenever a tagged
	// one followed it; see TestPoolServesUntaggedAmongTagged.
	tags := []string{"a", "b", "c", "d"}
	ops := 12000
	if testing.Short() {
		ops = 3000
	}
	for _, seed := range []int64{1, 2003, 77} {
		for k := 1; k <= len(tags); k++ {
			t.Run(fmt.Sprintf("seed%d/tags%d", seed, k), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var pool taskPool
				var ref slicePool
				var popped []Task // candidates for a requeue
				nextID := uint64(0)
				for op := 0; op < ops; op++ {
					// Alternate phases that mostly fill with phases that
					// mostly drain, emptying the pool now and then.
					pushBias := 70
					if (op/500)%2 == 1 {
						pushBias = 25
					}
					switch r := rng.Intn(100); {
					case r < pushBias || len(ref.buffer) == 0:
						switch {
						case len(popped) > 0 && rng.Intn(4) == 0:
							i := rng.Intn(len(popped))
							task := popped[i] // a requeue joins the back
							popped = append(popped[:i], popped[i+1:]...)
							pool.push(task)
							ref.push(task)
						case rng.Intn(50) == 0: // a Run's worth at once
							batch := make([]Task, 1+rng.Intn(30))
							for i := range batch {
								nextID++
								batch[i] = Task{ID: nextID, App: tags[rng.Intn(k)]}
								ref.push(batch[i])
							}
							pool.pushAll(batch)
						default:
							nextID++
							task := Task{ID: nextID, App: tags[rng.Intn(k)]}
							pool.push(task)
							ref.push(task)
						}
					default:
						got, want := pool.pop(), ref.pop()
						if got.ID != want.ID || got.App != want.App {
							t.Fatalf("op %d: popped task %d (%q), oracle popped %d (%q)",
								op, got.ID, got.App, want.ID, want.App)
						}
						for _, tag := range tags {
							if got := pool.creditOf(tag); got != ref.appCredit[tag] {
								t.Fatalf("op %d: credit of %q %d, oracle %v", op, tag, got, ref.appCredit)
							}
						}
						if len(popped) < 64 {
							popped = append(popped, got)
						}
					}
					if pool.len() != len(ref.buffer) || pool.peak != ref.peak {
						t.Fatalf("op %d: len %d peak %d, oracle len %d peak %d",
							op, pool.len(), pool.peak, len(ref.buffer), ref.peak)
					}
				}
				seen := 0
				pool.each(func(Task) { seen++ })
				if seen != pool.len() {
					t.Fatalf("each visited %d tasks, len %d", seen, pool.len())
				}
			})
		}
	}
}

// TestPoolServesUntaggedAmongTagged pins the one place the pool departs
// from the slice-and-scan pop on purpose: untagged tasks buffered beside
// tagged ones are an application like any other, not one every tagged
// application overtakes.
func TestPoolServesUntaggedAmongTagged(t *testing.T) {
	var p taskPool
	for i, app := range []string{"", "", "x", "x"} {
		p.push(Task{ID: uint64(i + 1), App: app})
	}
	for i, want := range []uint64{1, 3, 2, 4} { // equal weights alternate, oldest first
		if got := p.pop().ID; got != want {
			t.Fatalf("pop %d served task %d, want %d", i, got, want)
		}
	}
}

// TestPoolZeroesPoppedSlots checks that a dispatched task's payload is
// not kept reachable from the ring it was buffered in.
func TestPoolZeroesPoppedSlots(t *testing.T) {
	var p taskPool
	for i := 0; i < 5; i++ {
		p.push(Task{ID: uint64(i + 1), Payload: []byte{1}, App: "x"})
	}
	for p.len() > 0 {
		p.pop()
	}
	for i, s := range p.queues[0].ring {
		if s.task.Payload != nil || s.task.App != "" || s.seq != 0 {
			t.Fatalf("slot %d still holds %+v after its pop", i, s)
		}
	}
	if len(p.queues) != 1 || p.count[0] != 0 {
		t.Fatalf("drained pool keeps %d queues holding %v tasks, want 1 holding 0", len(p.queues), p.count)
	}
}

// filledPool buffers size tasks dealt round-robin over the first k tags.
func filledPool(size, k int) *taskPool {
	tags := []string{"a", "b", "c"}[:k]
	p := &taskPool{}
	for i := 0; i < size; i++ {
		p.push(Task{ID: uint64(i + 1), App: tags[i%k]})
	}
	return p
}

// TestHotPathAllocsPinnedPool is the allocation gate for the task pool
// (see hotpath_pin_test.go for the codec's): a warm pop and the push
// that refills it allocate nothing
// — with one tag, with three, and with three tags of one task each, where
// every pop drains a tag and every push reopens it on a spare ring.
func TestHotPathAllocsPinnedPool(t *testing.T) {
	for _, c := range []struct{ size, tags int }{{1024, 1}, {1024, 3}, {3, 3}} {
		p := filledPool(c.size, c.tags)
		cycle := func() { p.push(p.pop()) }
		for i := 0; i < 2*c.size; i++ {
			cycle() // warm: the credit ledger learns every tag
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("warm pop+push on %d tasks of %d tags allocates %.0f times, want 0",
				c.size, c.tags, allocs)
		}
	}
}

var poolSink Task

// BenchmarkPoolPop times one dispatch (a pop, and the push that keeps the
// pool at its size) against the pool's size: ns/op must not grow with it.
func BenchmarkPoolPop(b *testing.B) {
	for _, tags := range []int{1, 3} {
		for _, size := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("tags%d/size%d", tags, size), func(b *testing.B) {
				p := filledPool(size, tags)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					poolSink = p.pop()
					p.push(poolSink)
				}
			})
		}
	}
}
