package protocol

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// tenantTask is one buffered task of the scan reference.
type tenantTask struct{ id, app int }

// scanPool is live's slice-scan buffer from before the tenant picker, kept
// as the order reference: one slice in arrival order, scanned on every
// pop; a uniform buffer is served FIFO without touching the ledger, a
// mixed one by round-robin with ties to the application whose oldest
// task is first in the buffer.
type scanPool struct {
	buffer []tenantTask
	credit map[int]int64
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
		r.credit[app]++
		total++
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

// tenantDiffer drives PickTenant against the scan reference, as live
// does: over per-application FIFO queues with the oldest task's arrival
// stamp as the tie key.
type tenantDiffer struct {
	t testing.TB

	// The picker's ledger, per application its queued tasks as (id,
	// arrival stamp), the scan reference, and the popped tasks.
	credit []int64
	queues [][][2]int
	scan   scanPool
	popped []tenantTask
	ids    int
	seq    int
}

func newTenantDiffer(t testing.TB, apps int) *tenantDiffer {
	return &tenantDiffer{t: t, credit: make([]int64, apps), queues: make([][][2]int, apps)}
}

// enqueue buffers task behind every task present.
func (d *tenantDiffer) enqueue(task tenantTask) {
	d.seq++
	d.queues[task.app] = append(d.queues[task.app], [2]int{task.id, d.seq})
	d.scan.buffer = append(d.scan.buffer, task)
}

func (d *tenantDiffer) pop() {
	if len(d.scan.buffer) == 0 {
		return
	}
	lens := make([]int64, len(d.queues))
	for a, q := range d.queues {
		lens[a] = int64(len(q))
	}
	q := PickTenant(d.credit, lens, func(a int) uint64 { return uint64(d.queues[a][0][1]) })
	task := tenantTask{id: d.queues[q][0][0], app: q}
	d.queues[q] = d.queues[q][1:]
	want := d.scan.pop()
	if task != want {
		d.t.Fatalf("popped %+v, reference %+v", task, want)
	}
	for a, c := range d.credit {
		if c != d.scan.credit[a] {
			d.t.Fatalf("credit %v, reference %v", d.credit, d.scan.credit)
		}
	}
	d.popped = append(d.popped, task)
}

// run decodes ops, one byte per operation: push a fresh task of an
// application, pop, or requeue a popped task.
func (d *tenantDiffer) run(ops []byte) {
	for _, op := range ops {
		arg := int(op / 4)
		switch op % 4 {
		case 0, 1:
			d.ids++
			d.enqueue(tenantTask{id: d.ids, app: arg % len(d.queues)})
		case 2:
			d.pop()
		case 3: // requeue a pop
			if len(d.popped) > 0 {
				i := arg % len(d.popped)
				d.enqueue(d.popped[i])
				d.popped = slices.Delete(d.popped, i, i+1)
			}
		}
	}
}

// tenantInput splits a fuzz input into the number of applications, one
// to four, and the operations.
func tenantInput(data []byte) (apps int, ops []byte) {
	if len(data) == 0 {
		return 0, nil
	}
	return int(data[0]%4) + 1, data[1:]
}

// TestTenantPickMatchesReferences runs seeded operation strings over one
// to four applications through the reference.
func TestTenantPickMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 4))
	for run := 0; run < 200; run++ {
		data := make([]byte, 600)
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		apps, ops := tenantInput(data)
		newTenantDiffer(t, apps).run(ops)
	}
}

// FuzzTenantPick is the same differential on inputs of the fuzzer's
// choosing.
func FuzzTenantPick(f *testing.F) {
	f.Add([]byte{1, 0, 1, 4, 2, 2, 2, 2, 3, 2})
	f.Add([]byte{3, 0, 4, 8, 12, 2, 2, 3, 2, 7, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		apps, ops := tenantInput(data)
		if apps == 0 {
			return
		}
		newTenantDiffer(t, apps).run(ops)
	})
}

var tenantSink int

// TestHotPathAllocsPinnedTenants: a warm pick allocates nothing, with one
// application, with one eligible among several and with several eligible.
func TestHotPathAllocsPinnedTenants(t *testing.T) {
	for _, tasks := range [][]int64{{5}, {0, 5, 0, 0}, {5, 1, 0, 2}} {
		credit := make([]int64, len(tasks))
		keys := []uint64{9, 4, 7, 1}
		pick := func() { tenantSink = PickTenant(credit, tasks, func(a int) uint64 { return keys[a] }) }
		pick()
		if allocs := testing.AllocsPerRun(1000, pick); allocs != 0 {
			t.Errorf("tasks %v: %v allocations per pick, want 0", tasks, allocs)
		}
	}
}
