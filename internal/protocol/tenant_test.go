package protocol

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// countPick is the engine's pickApp from before the tenant picker, kept
// as a reference: smooth weighted round-robin over per-node task counts,
// the earliest application winning ties. weights are already normalized.
func countPick(avail, credit, weights []int64) int {
	best := -1
	var total int64
	for a := range avail {
		if avail[a] <= 0 {
			continue
		}
		w := weights[a]
		credit[a] += w
		total += w
		if best < 0 || credit[a] > credit[best] {
			best = a
		}
	}
	if best < 0 {
		panic("countPick with no eligible application")
	}
	credit[best] -= total
	return best
}

// tenantTask is one buffered task of the scan reference.
type tenantTask struct{ id, app int }

// scanPool is live's slice-scan buffer from before the tenant picker, kept
// as the order reference: one slice in arrival order, scanned on every
// pop; a uniform buffer is served FIFO without touching the ledger, a
// mixed one by weighted round-robin with ties to the application whose
// oldest task is first in the buffer.
type scanPool struct {
	weights []int64
	buffer  []tenantTask
	credit  map[int]int64
}

func (r *scanPool) pop() tenantTask {
	mixed := false
	for _, t := range r.buffer[1:] {
		if t.app != r.buffer[0].app {
			mixed = true
			break
		}
	}
	if !mixed {
		t := r.buffer[0]
		r.buffer = r.buffer[1:]
		return t
	}
	if r.credit == nil {
		r.credit = make(map[int]int64)
	}
	first := make(map[int]int) // app -> oldest buffered index
	var order []int            // apps in buffer order, for deterministic ties
	for i, t := range r.buffer {
		if _, ok := first[t.app]; !ok {
			first[t.app] = i
			order = append(order, t.app)
		}
	}
	var total int64
	best := -1
	for _, app := range order {
		w := r.weights[app]
		if w <= 0 {
			w = 1
		}
		r.credit[app] += w
		total += w
		if best < 0 || r.credit[app] > r.credit[best] {
			best = app
		}
	}
	r.credit[best] -= total
	i := first[best]
	t := r.buffer[i]
	r.buffer = slices.Delete(r.buffer, i, i+1)
	return t
}

// tenantDiffer drives PickTenant twice against the two references, on the
// same pushes, pops and requeues: once over task counts with the
// application index as the tie key (the engine's use), once over
// per-application FIFO queues with the oldest task's arrival stamp as the
// tie key (live's).
type tenantDiffer struct {
	t       testing.TB
	weights []int64
	// pickWeights is what PickTenant is given: weights, or nil, which
	// must weigh every application 1.
	pickWeights []int64

	// Counts: the picker's ledger, the reference's, the task counts and
	// the popped applications a requeue returns.
	credit, refCredit, counts []int64
	poppedApps                []int

	// Queues: the picker's ledger, per application its queued tasks as
	// (id, arrival stamp), the scan reference, and the popped tasks.
	qCredit []int64
	queues  [][][2]int
	scan    scanPool
	popped  []tenantTask
	ids     int
	seq     int
}

func newTenantDiffer(t testing.TB, weights []int64) *tenantDiffer {
	n := len(weights)
	return &tenantDiffer{t: t, weights: weights, pickWeights: weights,
		credit: make([]int64, n), refCredit: make([]int64, n), counts: make([]int64, n),
		qCredit: make([]int64, n), queues: make([][][2]int, n), scan: scanPool{weights: weights}}
}

// enqueue buffers task on the queue side, behind every task present.
func (d *tenantDiffer) enqueue(task tenantTask) {
	d.seq++
	d.queues[task.app] = append(d.queues[task.app], [2]int{task.id, d.seq})
	d.scan.buffer = append(d.scan.buffer, task)
}

func (d *tenantDiffer) pop() {
	if len(d.scan.buffer) == 0 {
		return
	}
	normalized := make([]int64, len(d.weights))
	for a, w := range d.weights {
		normalized[a] = max(w, 1)
	}
	got := PickTenant(d.credit, d.pickWeights, d.counts, nil)
	if want := countPick(d.counts, d.refCredit, normalized); got != want || !slices.Equal(d.credit, d.refCredit) {
		d.t.Fatalf("by count: picked %d with credit %v, reference %d with %v", got, d.credit, want, d.refCredit)
	}
	d.counts[got]--
	d.poppedApps = append(d.poppedApps, got)

	lens := make([]int64, len(d.queues))
	for a, q := range d.queues {
		lens[a] = int64(len(q))
	}
	q := PickTenant(d.qCredit, d.pickWeights, lens, func(a int) uint64 { return uint64(d.queues[a][0][1]) })
	task := tenantTask{id: d.queues[q][0][0], app: q}
	d.queues[q] = d.queues[q][1:]
	want := d.scan.pop()
	if task != want {
		d.t.Fatalf("by arrival: popped %+v, reference %+v", task, want)
	}
	for a, c := range d.qCredit {
		if c != d.scan.credit[a] {
			d.t.Fatalf("by arrival: credit %v, reference %v", d.qCredit, d.scan.credit)
		}
	}
	d.popped = append(d.popped, task)
}

// run decodes ops: the first byte is the number of applications, one byte
// each their weights (zero included), then one byte per operation — push
// a fresh task of an application, pop, or requeue a popped task.
func (d *tenantDiffer) run(ops []byte) {
	for _, op := range ops {
		arg := int(op / 4)
		switch op % 4 {
		case 0, 1:
			d.ids++
			app := arg % len(d.weights)
			d.counts[app]++
			d.enqueue(tenantTask{id: d.ids, app: app})
		case 2:
			d.pop()
		case 3: // each side requeues its pop of the same rank
			if len(d.popped) > 0 {
				i := arg % len(d.popped)
				d.enqueue(d.popped[i])
				d.counts[d.poppedApps[i]]++
				d.popped = slices.Delete(d.popped, i, i+1)
				d.poppedApps = slices.Delete(d.poppedApps, i, i+1)
			}
		}
	}
}

// tenantInput splits a fuzz input into weights and operations.
func tenantInput(data []byte) (weights []int64, ops []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := int(data[0]%4) + 1
	data = data[1:]
	weights = make([]int64, n)
	for a := range weights {
		if len(data) > 0 {
			weights[a] = int64(data[0] % 4)
			data = data[1:]
		}
	}
	return weights, data
}

// TestTenantPickMatchesReferences runs seeded operation strings over one
// to four applications through both references.
func TestTenantPickMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 4))
	for run := 0; run < 200; run++ {
		data := make([]byte, 600)
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		weights, ops := tenantInput(data)
		newTenantDiffer(t, weights).run(ops)
		// A nil weight slice weighs every application 1, as zeros do.
		d := newTenantDiffer(t, make([]int64, len(weights)))
		d.pickWeights = nil
		d.run(ops)
	}
}

// FuzzTenantPick is the same differential on inputs of the fuzzer's
// choosing.
func FuzzTenantPick(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 1, 4, 2, 2, 2, 2, 3, 2})
	f.Add([]byte{3, 0, 2, 1, 3, 0, 4, 8, 12, 2, 2, 3, 2, 7, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		weights, ops := tenantInput(data)
		if len(weights) == 0 {
			return
		}
		newTenantDiffer(t, weights).run(ops)
	})
}

var tenantSink int

// TestHotPathAllocsPinnedTenants: a warm pick allocates nothing, with one
// application, with one eligible among several and with several eligible,
// tied by index and by key.
func TestHotPathAllocsPinnedTenants(t *testing.T) {
	for _, tasks := range [][]int64{{5}, {0, 5, 0, 0}, {5, 1, 0, 2}} {
		credit := make([]int64, len(tasks))
		weights := []int64{3, 0, 1, 2}[:len(tasks)]
		keys := []uint64{9, 4, 7, 1}
		byIndex := func() { tenantSink = PickTenant(credit, weights, tasks, nil) }
		byKey := func() { tenantSink = PickTenant(credit, weights, tasks, func(a int) uint64 { return keys[a] }) }
		for _, pick := range []func(){byIndex, byKey} {
			pick()
			if allocs := testing.AllocsPerRun(1000, pick); allocs != 0 {
				t.Errorf("tasks %v: %v allocations per pick, want 0", tasks, allocs)
			}
		}
	}
}
