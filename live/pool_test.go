package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// slicePool is the buffer the ring replaced — one slice in arrival
// order — kept as the order oracle.
type slicePool struct {
	buffer []Task
	peak   int
}

func (n *slicePool) push(t Task) {
	n.buffer = append(n.buffer, t)
	n.peak = max(n.peak, len(n.buffer))
}

func (n *slicePool) remove(drop func(Task) bool) int {
	before := len(n.buffer)
	n.buffer = slices.DeleteFunc(n.buffer, drop)
	return before - len(n.buffer)
}

func (n *slicePool) pop() Task {
	t := n.buffer[0]
	n.buffer = n.buffer[1:]
	return t
}

// TestPoolMatchesSliceScan drives the pool and the slice oracle with the
// same seeded sequence of pushes (single and bulk), pops, requeues and
// removals (an abandoned Run's tasks leaving the pool): the same task,
// with the same payload, must come out of every pop, with the same length
// and high-water mark on both sides. Each task's one-byte
// payload is a tag drawn from K values (the subtest's tagsK). The load
// swings between filling and draining, so the ring wraps, grows and
// empties now and then.
func TestPoolMatchesSliceScan(t *testing.T) {
	ops := 12000
	if testing.Short() {
		ops = 3000
	}
	for _, seed := range []int64{1, 2003, 77} {
		for k := 1; k <= 4; k++ {
			t.Run(fmt.Sprintf("seed%d/tags%d", seed, k), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var pool taskPool
				var ref slicePool
				var popped []Task // candidates for a requeue
				nextID := uint64(0)
				task := func() Task {
					nextID++
					return Task{ID: nextID, Payload: []byte{byte(rng.Intn(k))}}
				}
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
							tk := popped[i] // a requeue joins the back
							popped = append(popped[:i], popped[i+1:]...)
							pool.push(tk)
							ref.push(tk)
						case rng.Intn(50) == 0: // a Run's worth at once
							batch := make([]Task, 1+rng.Intn(30))
							for i := range batch {
								batch[i] = task()
								ref.push(batch[i])
							}
							pool.pushAll(batch)
						default:
							tk := task()
							pool.push(tk)
							ref.push(tk)
						}
					case r == 99:
						tag := byte(rng.Intn(k))
						drop := func(t Task) bool { return t.Payload[0] == tag }
						if got, want := pool.remove(drop), ref.remove(drop); got != want {
							t.Fatalf("op %d: removed %d tasks tagged %d, oracle removed %d", op, got, tag, want)
						}
					default:
						got, want := pool.pop(), ref.pop()
						if got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
							t.Fatalf("op %d: popped task %d (%v), oracle popped %d (%v)",
								op, got.ID, got.Payload, want.ID, want.Payload)
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
				var seen []Task
				pool.each(func(t Task) { seen = append(seen, t) })
				if len(seen) != pool.len() {
					t.Fatalf("each visited %d tasks, len %d", len(seen), pool.len())
				}
				for i, tk := range seen {
					if tk.ID != ref.buffer[i].ID {
						t.Fatalf("each visited task %d at %d, oracle holds %d", tk.ID, i, ref.buffer[i].ID)
					}
				}
			})
		}
	}
}

// TestPoolZeroesPoppedSlots checks that a dispatched or removed task's
// payload is not kept reachable from the ring it was buffered in.
func TestPoolZeroesPoppedSlots(t *testing.T) {
	var p taskPool
	for i := 0; i < 5; i++ {
		p.push(Task{ID: uint64(i + 1), Payload: []byte{1}})
	}
	p.remove(func(t Task) bool { return t.ID%2 == 0 })
	for p.len() > 0 {
		p.pop()
	}
	for i, s := range p.ring {
		if s.Payload != nil || s.ID != 0 {
			t.Fatalf("slot %d still holds %+v after its pop", i, s)
		}
	}
}

// filledPool buffers size tasks.
func filledPool(size int) *taskPool {
	p := &taskPool{}
	for i := 0; i < size; i++ {
		p.push(Task{ID: uint64(i + 1)})
	}
	return p
}

// TestHotPathAllocsPinnedPool is the allocation gate for the task pool
// (see hotpath_pin_test.go for the codec's): a warm pop and the push
// that refills it allocate nothing, on a large ring and on one that every
// pop nearly drains.
func TestHotPathAllocsPinnedPool(t *testing.T) {
	for _, size := range []int{1024, 3, 1} {
		p := filledPool(size)
		cycle := func() { p.push(p.pop()) }
		for i := 0; i < 2*size; i++ {
			cycle() // warm: the head laps the ring
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("warm pop+push on %d tasks allocates %.0f times, want 0", size, allocs)
		}
	}
}

var poolSink Task

// BenchmarkPoolPop times one dispatch (a pop, and the push that keeps the
// pool at its size) against the pool's size: ns/op must not grow with it.
func BenchmarkPoolPop(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			p := filledPool(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				poolSink = p.pop()
				p.push(poolSink)
			}
		})
	}
}
