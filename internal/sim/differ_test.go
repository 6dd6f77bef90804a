package sim

import "testing"

// modelEvent is a pending event of the reference model.
type modelEvent struct {
	at  Time
	seq uint64
	id  int32
	far bool // scheduled maxSpan or more ahead
}

// differ drives a Simulator and the reference model — an unordered slice
// popped by minimum (at, seq) — with one sequence of operations decoded
// from a byte string, and fails at the first divergence: every fired
// event must be the model's minimum, and after every operation the clock,
// the pending count and the counters must agree. Handlers schedule
// follow-ups, as the engine's do.
type differ struct {
	t       testing.TB
	s       *Simulator
	now     Time
	seq     uint64
	pending []modelEvent
	live    map[int32]*Event
	nextID  int32
	peak    int
	fires   uint64
	cancels uint64
	scheds  uint64

	// What the run exercised; the randomized test requires all of it.
	cov struct {
		grows, nearCancels, farCancels, farFires, splitTies, fullResets int
	}
}

func newDiffer(t testing.TB) *differ {
	d := &differ{t: t, live: map[int32]*Event{}}
	d.s = New(d)
	return d
}

func (d *differ) Handle(e *Event) {
	min := 0
	for i, p := range d.pending {
		if m := d.pending[min]; p.at < m.at || (p.at == m.at && p.seq < m.seq) {
			min = i
		}
	}
	want := d.pending[min]
	if e.Node != want.id || e.at != want.at || d.s.Now() != want.at {
		d.t.Fatalf("fired event %d at %d (clock %d), model expects event %d at %d", e.Node, e.at, d.s.Now(), want.id, want.at)
	}
	if e.index >= 0 {
		d.t.Fatalf("event %d still marked queued while it fires", e.Node)
	}
	if d.live[want.id] != e {
		d.t.Fatalf("event %d fired from another event's memory", want.id)
	}
	for _, p := range d.pending {
		if p.at == want.at && p.far != want.far {
			d.cov.splitTies++
			break
		}
	}
	d.pending = append(d.pending[:min], d.pending[min+1:]...)
	delete(d.live, want.id)
	d.now = want.at
	d.fires++
	// Every third event has a successor, now (delay 0), soon, or far enough
	// to grow the ring from inside a handler.
	if want.id%3 == 0 {
		d.schedule(Time(want.id) * 7 % 200)
	}
}

func (d *differ) schedule(delay Time) {
	span := len(d.s.slots)
	id := d.nextID
	d.nextID++
	e := d.s.Schedule(delay, 1, id, -id)
	if e.at != d.now+delay || e.Node != id || e.Child != -id {
		d.t.Fatalf("scheduled event %d carries at=%d node=%d child=%d", id, e.at, e.Node, e.Child)
	}
	if wantFar := delay >= maxSpan; (e.index == inFar) != wantFar {
		d.t.Fatalf("delay %d stored with index %d", delay, e.index)
	}
	if len(d.s.slots) != span {
		d.cov.grows++
	}
	d.live[id] = e
	d.pending = append(d.pending, modelEvent{d.now + delay, d.seq, id, delay >= maxSpan})
	d.seq++
	d.scheds++
	d.peak = max(d.peak, len(d.pending))
}

// delay decodes a delay from two bytes: inside the first ring, either side
// of its edge, anywhere up to the largest ring, either side of that edge,
// far beyond it, or the time of an event already pending — which, when
// that one sits in the far store and the clock has since come near, puts
// two events of one time in two stores.
func (d *differ) delay(class, arg byte) Time {
	switch class % 8 {
	case 0:
		return Time(arg % minSpan)
	case 1:
		return minSpan - 3 + Time(arg%6)
	case 2:
		return Time(arg)<<6 | Time(class>>3)
	case 3:
		return maxSpan - 2 + Time(arg%5)
	case 4:
		return maxSpan + Time(arg)*300
	case 5:
		return 0
	default:
		if len(d.pending) == 0 {
			return Time(arg)
		}
		return d.pending[int(arg)%len(d.pending)].at - d.now
	}
}

// run executes ops, then drains the queue.
func (d *differ) run(ops []byte) {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for len(ops) > 0 {
		switch op := next(); op % 16 {
		default: // 0..7
			d.schedule(d.delay(next(), next()))
		case 8, 9, 10:
			if len(d.pending) == 0 {
				continue
			}
			i := int(next()) % len(d.pending)
			p := d.pending[i]
			e := d.live[p.id]
			if e.index == inFar {
				d.cov.farCancels++
			} else {
				d.cov.nearCancels++
			}
			if got := d.s.Cancel(e); got != p.at-d.now {
				d.t.Fatalf("Cancel of event %d returned %d, want %d", p.id, got, p.at-d.now)
			}
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			delete(d.live, p.id)
			d.cancels++
		case 11, 12:
			if len(d.s.far) > 0 && d.s.peek() == d.s.far[0] {
				d.cov.farFires++
			}
			if want := len(d.pending) > 0; d.s.Step() != want {
				d.t.Fatalf("Step returned %v", !want)
			}
		case 13, 14:
			before := d.fires
			k := uint64(next()%8) + 1
			if got := d.s.Run(k); got != d.fires-before || (got < k && len(d.pending) > 0) {
				d.t.Fatalf("Run(%d) returned %d after %d fires with %d still pending", k, got, d.fires-before, len(d.pending))
			}
		case 15:
			if next()%4 != 0 {
				continue // keep resets rare enough for queues to build up
			}
			if d.s.near > 0 && len(d.s.far) > 0 {
				d.cov.fullResets++
			}
			d.s.Reset()
			for _, e := range d.live {
				if e.index >= 0 {
					d.t.Fatalf("Reset left event %d marked queued", e.Node)
				}
			}
			clear(d.live)
			d.pending, d.now, d.seq = d.pending[:0], 0, 0
			d.peak, d.fires, d.cancels, d.scheds = 0, 0, 0, 0
		}
		d.agree()
	}
	for d.s.Step() {
	}
	d.agree()
	if len(d.pending) != 0 {
		d.t.Fatalf("queue drained with %d events still pending in the model", len(d.pending))
	}
}

// agree checks everything observable from outside between operations.
func (d *differ) agree() {
	s := d.s
	if s.Now() != d.now || s.Pending() != len(d.pending) {
		d.t.Fatalf("clock %d with %d pending, model has clock %d with %d", s.Now(), s.Pending(), d.now, len(d.pending))
	}
	if s.Steps() != d.fires || s.Cancelled() != d.cancels || s.FreeListHits()+s.Allocs() != d.scheds || s.PeakPending() != d.peak {
		d.t.Fatalf("counters: steps %d cancelled %d schedules %d peak %d, model has %d %d %d %d",
			s.Steps(), s.Cancelled(), s.FreeListHits()+s.Allocs(), s.PeakPending(), d.fires, d.cancels, d.scheds, d.peak)
	}
	var far int
	for _, e := range d.live {
		if e.index < 0 {
			d.t.Fatalf("pending event %d not marked queued", e.Node)
		}
		if e.index == inFar {
			far++
		}
	}
	if far != len(s.far) || len(d.live)-far != s.near {
		d.t.Fatalf("stores hold %d+%d events, the live set says %d+%d", s.near, len(s.far), len(d.live)-far, far)
	}
}

// FuzzKernelAgainstReference is the same differential on operation strings
// of the fuzzer's choosing.
func FuzzKernelAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 0, 4, 3, 0, 6, 0, 11, 14, 200, 0, 11, 11})                  // near, far, step, run
	f.Add([]byte{0, 4, 1, 14, 255, 0, 0, 6, 0, 8, 0, 8, 0, 15, 0, 0, 3, 2, 13, 7})    // far then its time again from nearby; cancels; reset
	f.Add([]byte{0, 1, 3, 0, 2, 255, 0, 3, 1, 0, 3, 2, 0, 3, 3, 13, 7, 14, 9, 1, 12}) // either side of both ring edges
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		newDiffer(t).run(ops)
	})
}
