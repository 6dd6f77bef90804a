package protocol

// The core against its reference: the linear scan over shelves and
// children that the engine's send-port pick was before its child lists
// were kept in priority order, and the engine's buffer rules as they were
// written before they moved here, driven side by side with a Node by one
// operation string and compared at every decision.

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// oracleShelf is a shelved transfer as the linear scan kept it: in a list
// at the sender.
type oracleShelf struct {
	child int32
	since int64
}

// refChild is a child as the reference keeps it, by ID.
type refChild struct {
	key, pending, since  int64
	incoming, down, gone bool
}

// ref is the reference node: the engine's rules before the core, over
// per-child records, a shelf list and a child list in the driver's order.
type ref struct {
	p                         Protocol
	root                      bool
	capacity, maxCap          int64
	occupied, maxOcc          int64
	computing                 bool
	sending                   int32
	sendSince                 int64
	shelves                   []oracleShelf
	maxShelved                int
	kids                      map[int32]*refChild
	list                      []int32
	rrNext                    int
	waiting                   int
	decayStreak, pendingDecay int64
}

func (r *ref) grow() bool {
	if r.root || !r.p.Grow {
		return false
	}
	r.capacity++
	r.maxCap = max(r.maxCap, r.capacity)
	return true
}

func (r *ref) take() (t Take) {
	r.occupied--
	if r.root {
		return t
	}
	if r.occupied == 0 {
		r.decayStreak = 0
	}
	if r.pendingDecay > 0 && r.capacity > int64(r.p.InitialBuffers) {
		r.pendingDecay--
		r.capacity--
		t.Retired = true
	} else {
		t.Request = true
	}
	if r.occupied == 0 && r.waiting > 0 {
		t.Grew = r.grow()
	}
	return t
}

func (r *ref) computeDone() {
	r.computing = false
	if r.root || !r.p.Decay {
		return
	}
	if r.capacity <= int64(r.p.InitialBuffers) {
		r.decayStreak = 0
		return
	}
	r.decayStreak++
	if r.decayStreak >= DecayWindow {
		r.pendingDecay++
		r.decayStreak = 0
	}
}

func (r *ref) request(c int32, k, now int64) {
	ch := r.kids[c]
	if ch.gone {
		r.waiting++
		return
	}
	if ch.pending == 0 {
		ch.since = now
		r.waiting++
	}
	ch.pending += k
}

func (r *ref) shelfOf(c int32) int {
	return slices.IndexFunc(r.shelves, func(sh oracleShelf) bool { return sh.child == c })
}

func (r *ref) shelve() {
	r.shelves = append(r.shelves, oracleShelf{r.sending, r.sendSince})
	r.maxShelved = max(r.maxShelved, len(r.shelves))
	r.sending = -1
}

// scan is the engine's linear-scan pick: over the shelves and the
// children with a pending request, the smallest key, ties by ID; in list
// order for round-robin and random.
func (r *ref) scan(rng *rand.Rand) (child int32, isShelf bool) {
	canFresh := r.occupied > 0
	hasShelf := func(c int32) bool { return !r.kids[c].down && r.shelfOf(c) >= 0 }
	fresh := func(c int32) bool {
		ch := r.kids[c]
		return canFresh && !ch.down && ch.pending > 0 && !ch.incoming
	}
	switch r.p.Order {
	case RoundRobin:
		k := len(r.list)
		for i := 0; i < k; i++ {
			c := r.list[(r.rrNext+i)%k]
			if hasShelf(c) || fresh(c) {
				r.rrNext = (r.rrNext + i + 1) % k
				return c, hasShelf(c)
			}
		}
		return -1, false
	case Random:
		var pick int32 = -1
		count := 0
		for _, c := range r.list {
			if !hasShelf(c) && !fresh(c) {
				continue
			}
			count++
			if rng.IntN(count) == 0 {
				pick, isShelf = c, hasShelf(c)
			}
		}
		return pick, isShelf
	}
	child = -1
	var bestKey int64
	consider := func(c int32, shelfCand bool, since int64) {
		key := r.kids[c].key
		if r.p.Order == FCFS {
			key = since
		}
		if child < 0 || key < bestKey || (key == bestKey && c < child) {
			child, isShelf, bestKey = c, shelfCand, key
		}
	}
	for _, sh := range r.shelves {
		if !r.kids[sh.child].down {
			consider(sh.child, true, sh.since)
		}
	}
	for _, c := range r.list {
		if fresh(c) {
			consider(c, false, r.kids[c].since)
		}
	}
	return child, isShelf
}

// decide is the engine's trySchedule send-port step over the scan. It
// returns the child served, whether it resumed, the child shelved and the
// fresh send's Take.
func (r *ref) decide(now int64, rng *rand.Rand) (served int32, resume bool, shelved int32, t Take) {
	shelved = -1
	if r.sending >= 0 && !r.p.Interruptible {
		return -1, false, -1, t
	}
	best, isShelf := r.scan(rng)
	if best < 0 {
		return -1, false, -1, t
	}
	if r.sending >= 0 {
		prio := func(c int32, since int64) int64 {
			if r.p.Order == FCFS {
				return since
			}
			return r.kids[c].key
		}
		candSince := r.kids[best].since
		if isShelf {
			candSince = r.shelves[r.shelfOf(best)].since
		}
		if prio(best, candSince) >= prio(r.sending, r.sendSince) {
			return -1, false, -1, t
		}
		shelved = r.sending
		r.shelve()
	}
	if isShelf {
		i := r.shelfOf(best)
		r.sending, r.sendSince = best, r.shelves[i].since
		r.shelves = slices.Delete(r.shelves, i, i+1)
		return best, true, shelved, t
	}
	return best, false, shelved, r.start(best, now)
}

func (r *ref) start(c int32, now int64) Take {
	ch := r.kids[c]
	since := ch.since
	ch.pending--
	if ch.pending == 0 {
		r.waiting--
	} else {
		ch.since = now
	}
	ch.incoming = true
	t := r.take()
	r.sending, r.sendSince = c, since
	return t
}

// differ drives a Node and the reference with one operation string.
type differ struct {
	t    testing.TB
	n    Node
	r    ref
	now  int64
	next int32 // the next child's ID
	rngN *rand.Rand
	rngR *rand.Rand

	// What the run exercised.
	cov struct{ resumed, shelved, grew, retired int }
}

// slotOf returns the position of child c among the core's slots.
func (d *differ) slotOf(c int32) int {
	return slices.IndexFunc(d.n.Slots, func(s Slot) bool { return s.Child == c })
}

func (d *differ) static() bool {
	return d.r.p.Order == BandwidthCentric || d.r.p.Order == ComputeCentric
}

// protocolFor decodes a protocol from one byte: the order, interruption
// where the order allows it, and, without it, fixed buffers, growth or
// growth with decay.
func protocolFor(b, buffers byte) Protocol {
	o := Order(b % 5)
	ib := int(buffers%3) + 1
	if o.HasPriority() && b/5%2 == 1 {
		return Interruptible(ib).WithOrder(o)
	}
	switch b / 10 % 3 {
	case 1:
		return NonInterruptible(ib).WithOrder(o)
	case 2:
		return NonInterruptible(ib).WithOrder(o).WithDecay()
	}
	return NonInterruptibleFixed(ib).WithOrder(o)
}

func newDiffer(t testing.TB, p Protocol, root bool, seed uint64) *differ {
	if err := p.Validate(); err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	d := &differ{t: t, rngN: rand.New(rand.NewPCG(seed, 1)), rngR: rand.New(rand.NewPCG(seed, 1))}
	d.n.Reset(p, root)
	d.r = ref{p: p, root: root, capacity: int64(p.InitialBuffers), maxCap: int64(p.InitialBuffers),
		sending: -1, kids: map[int32]*refChild{}}
	return d
}

func (d *differ) addChild(key int64) {
	c := d.next
	d.next++
	d.n.Slots = append(d.n.Slots, Slot{Child: c, Key: key})
	d.n.Sort()
	d.r.kids[c] = &refChild{key: key}
	d.r.list = append(d.r.list, c)
}

// run executes ops: the first three bytes pick the protocol, the node's
// place and its children; every later byte is an operation, some taking
// an argument byte. After each one both sides take their scheduling step
// and must agree on every decision and every counter.
func (d *differ) run(ops []byte) {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for k := int(next()%5) + 1; k > 0; k-- {
		d.addChild(int64(next() % 4))
	}
	for len(ops) > 0 {
		op, arg := next(), next()
		var c int32 = -1
		if len(d.r.list) > 0 {
			c = d.r.list[int(arg)%len(d.r.list)]
		}
		switch op % 10 {
		case 0, 1: // k requests from a child
			if c >= 0 {
				k := int64(arg/64) + 1
				d.n.Request(d.slotOf(c), k, d.now)
				d.r.request(c, k, d.now)
			}
		case 2: // the child's key changes
			if c >= 0 {
				key := int64(arg / 16 % 4)
				d.n.Slots[d.slotOf(c)].Key = key
				d.n.Sort()
				d.r.kids[c].key = key
			}
		case 3: // the send in flight lands
			if d.r.sending >= 0 {
				got, want := d.n.SendDone(), d.r.sendDone()
				if got != want {
					d.t.Fatalf("send done: G2 %v, reference %v", got, want)
				}
				d.cov.grew += b2i(got)
			}
		case 4: // the computation completes
			if d.r.computing {
				d.n.ComputeDone()
				d.r.computeDone()
				got, want := d.n.G3(), d.r.occupied == 0 && d.r.grow()
				if got != want {
					d.t.Fatalf("compute done: G3 %v, reference %v", got, want)
				}
				d.cov.grew += b2i(got)
			}
		case 5: // a task arrives (the root's pool refills)
			if d.r.root {
				d.n.Refill(1)
				d.r.occupied++
			} else {
				d.n.Arrived()
				d.r.occupied++
				d.r.maxOcc = max(d.r.maxOcc, d.r.occupied)
			}
		case 6: // the child goes down, or comes back up
			if c >= 0 {
				if ch := d.r.kids[c]; ch.down {
					d.n.ChildUp(d.slotOf(c))
					ch.down = false
				} else {
					d.n.ChildDown(d.slotOf(c))
					ch.down = true
					if d.r.sending == c {
						d.r.shelve()
					}
				}
			}
		case 7: // the child is removed
			if c >= 0 && arg%4 == 0 {
				sending, shelved := d.n.Remove(d.slotOf(c))
				wantSending, wantShelved := d.r.remove(c)
				if sending != wantSending || shelved != wantShelved {
					d.t.Fatalf("remove %d: sending %v shelved %v, reference %v %v", c, sending, shelved, wantSending, wantShelved)
				}
			}
		case 8: // a request from a child no longer listed
			if arg%8 == 0 {
				d.n.Request(-1, 1, d.now)
				d.r.waiting++
			}
		case 9: // a child joins
			if len(d.r.list) < 8 && arg%2 == 0 {
				d.addChild(int64(arg / 2 % 4))
			}
		}
		d.now += int64(op / 10 % 3)
		d.step()
		d.agree()
	}
}

func (r *ref) sendDone() bool {
	r.kids[r.sending].incoming = false
	r.sending = -1
	return r.occupied == 0 && r.waiting > 0 && r.grow()
}

func (r *ref) remove(c int32) (sending, shelved bool) {
	ch := r.kids[c]
	if r.sending == c {
		r.sending, sending = -1, true
	}
	if i := r.shelfOf(c); i >= 0 {
		r.shelves = slices.Delete(r.shelves, i, i+1)
		shelved = true
	}
	if ch.pending > 0 {
		r.waiting--
	}
	ch.gone = true
	r.list = slices.DeleteFunc(r.list, func(x int32) bool { return x == c })
	return sending, shelved
}

// step is one scheduling pass on both sides: the compute port, then the
// send port.
func (d *differ) step() {
	gotT, gotOK := d.n.Compute()
	var wantT Take
	wantOK := !d.r.computing && d.r.occupied > 0
	if wantOK {
		wantT = d.r.take()
		d.r.computing = true
	}
	if gotT != wantT || gotOK != wantOK {
		d.t.Fatalf("compute: (%+v, %v), reference (%+v, %v)", gotT, gotOK, wantT, wantOK)
	}
	got := d.n.DecideSend(d.now, d.rngN)
	served, resume, shelved, take := d.r.decide(d.now, d.rngR)
	child := func(i int) int32 {
		if i < 0 {
			return -1
		}
		return d.n.Slots[i].Child
	}
	if child(got.Slot) != served || got.Resume != resume || child(got.Shelved) != shelved || got.Take != take {
		d.t.Fatalf("under %v at t=%d: send (child %d, resume %v, shelved %d, %+v), linear scan (child %d, resume %v, shelved %d, %+v)",
			d.r.p, d.now, child(got.Slot), got.Resume, child(got.Shelved), got.Take, served, resume, shelved, take)
	}
	for _, t := range []Take{gotT, got.Take} {
		d.cov.grew += b2i(t.Grew)
		d.cov.retired += b2i(t.Retired)
	}
	d.cov.resumed += b2i(got.Resume)
	d.cov.shelved += b2i(got.Shelved >= 0)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// agree compares everything the two keep.
func (d *differ) agree() {
	n, r := &d.n, &d.r
	if n.Capacity != r.capacity || n.MaxCapacity != r.maxCap || n.Occupied != r.occupied || n.MaxOccupied != r.maxOcc ||
		n.Computing != r.computing || n.MaxShelved != r.maxShelved || n.waiting != r.waiting {
		d.t.Fatalf("counters: capacity %d/%d occupied %d/%d computing %v shelved max %d waiting %d; reference %d/%d %d/%d %v %d %d",
			n.Capacity, n.MaxCapacity, n.Occupied, n.MaxOccupied, n.Computing, n.MaxShelved, n.waiting,
			r.capacity, r.maxCap, r.occupied, r.maxOcc, r.computing, r.maxShelved, r.waiting)
	}
	if s := n.Sending(); (s < 0) != (r.sending < 0) || s >= 0 && n.Slots[s].Child != r.sending {
		d.t.Fatalf("sending slot %d, reference child %d", s, r.sending)
	}
	if len(n.Slots) != len(r.list) || n.shelves != len(r.shelves) {
		d.t.Fatalf("%d slots %d shelves, reference %d children %d shelves", len(n.Slots), n.shelves, len(r.list), len(r.shelves))
	}
	for i, s := range n.Slots {
		ch := r.kids[s.Child]
		if s.Pending != ch.pending || s.Inflight != ch.incoming || s.Shelved != (r.shelfOf(s.Child) >= 0) || s.Down != ch.down || s.Key != ch.key {
			d.t.Fatalf("slot %d %+v, reference %+v shelved %v", i, s, *ch, r.shelfOf(s.Child) >= 0)
		}
		if !d.static() && s.Child != r.list[i] {
			d.t.Fatalf("slot %d holds child %d, the list has %d there", i, s.Child, r.list[i])
		}
	}
	if d.static() && !slices.IsSortedFunc(n.Slots, func(a, b Slot) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Child, b.Child)) }) {
		d.t.Fatalf("slots out of priority order: %+v", n.Slots)
	}
}

// TestNodeMatchesScan runs seeded operation strings under every protocol
// the decoder produces — all five orders, interruptible and not, fixed
// buffers, growth, capped growth and decay — at an interior node and at
// the root, and requires every kind of decision to have been taken.
func TestNodeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(2003, 31))
	var resumed, shelved, grew, retired int
	for b := 0; b < 40; b++ {
		for _, root := range []bool{false, true} {
			for run := 0; run < 25; run++ {
				ops := make([]byte, 400)
				for i := range ops {
					ops[i] = byte(rng.UintN(256))
				}
				d := newDiffer(t, protocolFor(byte(b), byte(run)), root, uint64(run))
				d.run(ops)
				resumed += d.cov.resumed
				shelved += d.cov.shelved
				grew += d.cov.grew
				retired += d.cov.retired
			}
		}
		if p := protocolFor(byte(b), 0); p.Decay {
			// A grown buffer kept busy: the first completion grows one,
			// then each completion is followed by an arrival, so the
			// buffers never run empty for DecayWindow completions.
			steady := []byte{0, 0, 5, 0, 4, 0, 5, 0, 5, 0, 5, 0}
			for i := 0; i < 2*DecayWindow; i++ {
				steady = append(steady, 4, 0, 5, 0)
			}
			d := newDiffer(t, p, false, 0)
			d.run(steady)
			retired += d.cov.retired
		}
	}
	if resumed == 0 || shelved == 0 || grew == 0 || retired == 0 {
		t.Fatalf("coverage: %d resumes, %d preemptions, %d growths, %d retirements; need each", resumed, shelved, grew, retired)
	}
}

// FuzzNodeAgainstScan is the same differential on operation strings of
// the fuzzer's choosing.
func FuzzNodeAgainstScan(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 0, 0, 10, 5, 0, 3, 0})
	f.Add([]byte{5, 1, 4, 0, 1, 3, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 17, 1, 5, 0, 3, 0, 6, 1, 0, 2}) // IC, a preemption and a down child
	f.Add([]byte{30, 2, 2, 2, 0, 5, 0, 5, 0, 0, 0, 4, 0, 5, 0, 4, 0, 8, 0, 3, 0, 4, 0, 5, 0, 4, 0}) // decay
	f.Add([]byte{13, 0, 4, 0, 1, 2, 3, 0, 64, 0, 1, 5, 0, 5, 0, 7, 0, 3, 0, 9, 0, 0, 3})            // round-robin, a removal
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		newDiffer(t, protocolFor(ops[0], ops[1]), ops[2]%4 == 0, uint64(len(ops))).run(ops[3:])
	})
}

// TestHotPathAllocsPinnedCore: a warm request → pick → send-done →
// compute cycle allocates nothing.
func TestHotPathAllocsPinnedCore(t *testing.T) {
	var n Node
	n.Reset(Interruptible(3), false)
	n.Slots = append(n.Slots, Slot{Child: 1, Key: 1}, Slot{Child: 2, Key: 4})
	n.Refill(3)
	rng := rand.New(rand.NewPCG(1, 2))
	var now int64
	cycle := func() {
		now++
		n.Request(int(now%2), 1, now)
		if _, ok := n.Compute(); ok {
			n.ComputeDone()
			n.G3()
		}
		if d := n.DecideSend(now, rng); d.Slot >= 0 || n.Sending() >= 0 {
			n.SendDone()
		}
		n.Arrived()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("%v allocations per cycle, want 0", allocs)
	}
}
