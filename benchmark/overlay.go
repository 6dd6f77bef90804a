package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bwcs/internal/optimal"
	"bwcs/internal/tree"
	"bwcs/live"
)

// overlaySpec describes a live overlay workload: one in-process node per
// tree node over loopback TCP, default codec, recorder and timeline off.
type overlaySpec struct {
	tree *tree.Tree
	// step is the wall time of one model timestep: node i computes a task
	// by sleeping w_i·step and delays each chunk to child j by c_j·step/4
	// (payload is four chunks). Zero runs at host speed behind a gated
	// root: compute is a digest or echo and no delay is added.
	step      time.Duration
	tasks     int // per Run
	payload   int // bytes per task
	chunk     int // chunk size; 0 is the runtime's default
	buffers   int // the paper's FB; 0 is 3
	echo      bool
	warmRuns  int
	warmTasks int // per warm-up Run, at most tasks; 0 is tasks
	// runSizeProbe adds the traced run's Run-size probe (small tasks
	// only: a 20,000-task Run of large echoes would hold 640 MB).
	runSizeProbe bool
}

// overlay is a started overlay plus the load generator's state. The load
// is a closed loop: one goroutine calls root.Run, one application at a
// time. Payloads are built once and reused across Runs.
type overlay struct {
	spec  overlaySpec
	nodes []*live.Node // index = tree node ID, 0 the root
	tasks []live.Task
	want  [][]byte // expected output of task i is want[i%len(want)]
	cur   atomic.Pointer[runState]
	bases []uint64 // first task ID of each Run so far, minus one
}

// runState is what the ComputeFunc wrappers share during one Run.
type runState struct {
	t0     time.Time
	n      atomic.Int64
	stamps []int64 // completion times, ns since t0, in counting order
	// The host-speed root takes one task and holds it until the other
	// nodes have computed the rest, so it neither competes for tasks nor
	// imposes a floor on the Run (a stalled root quantises the rate).
	left atomic.Int64
	gate chan struct{}
	once sync.Once
}

func (rs *runState) open() { rs.once.Do(func() { close(rs.gate) }) }

func (rs *runState) done() {
	if i := int(rs.n.Add(1)) - 1; i < len(rs.stamps) {
		rs.stamps[i] = int64(time.Since(rs.t0))
	}
	if rs.left.Add(-1) == 0 {
		rs.open()
	}
}

func nodeName(id tree.NodeID) string { return fmt.Sprintf("P%d", id) }

// output is the result a task must return: its payload echoed, or the
// 8-byte FNV-1a digest of it.
func (s overlaySpec) output(p []byte) []byte {
	if s.echo {
		return p
	}
	h := uint64(14695981039346656037)
	for _, b := range p {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return binary.BigEndian.AppendUint64(nil, h)
}

func (o *overlay) compute(id tree.NodeID) live.ComputeFunc {
	work := time.Duration(o.spec.tree.W(id)) * o.spec.step
	gated := id == 0 && o.spec.step == 0
	return func(t live.Task) ([]byte, error) {
		rs := o.cur.Load()
		if gated {
			<-rs.gate
			return o.spec.output(t.Payload), nil
		}
		if work > 0 {
			time.Sleep(work)
		}
		out := o.spec.output(t.Payload)
		rs.done()
		return out, nil
	}
}

// startOverlay builds the payloads from seed and starts the nodes,
// parents first; live.Start returns once the node has shaken hands with
// its parent. recorder is the flight-recorder capacity, negative for off.
func startOverlay(spec overlaySpec, seed uint64, recorder int) (*overlay, error) {
	o := &overlay{spec: spec, tasks: make([]live.Task, spec.tasks)}
	rng := rand.New(rand.NewPCG(seed, 1))
	bufs := make([][]byte, min(spec.tasks, 256))
	for i := range bufs {
		bufs[i] = make([]byte, spec.payload)
		for j := range bufs[i] {
			bufs[i][j] = byte(rng.Uint32())
		}
		o.want = append(o.want, spec.output(bufs[i]))
	}
	for i := range o.tasks {
		o.tasks[i].Payload = bufs[i%len(bufs)]
	}

	t := spec.tree
	o.nodes = make([]*live.Node, 0, t.Len())
	for id := tree.NodeID(0); int(id) < t.Len(); id++ {
		opts := []live.Option{
			live.WithCompute(o.compute(id)),
			live.WithBuffers(pick(spec.buffers == 0, 3, spec.buffers)),
			live.WithRecorderCapacity(recorder),
			live.WithTimelineInterval(-1),
		}
		if spec.chunk > 0 {
			opts = append(opts, live.WithChunkSize(spec.chunk))
		}
		if id != 0 {
			opts = append(opts, live.WithParent(o.nodes[t.Parent(id)].Addr()))
		}
		if !t.IsLeaf(id) {
			opts = append(opts, live.WithListen("127.0.0.1:0"))
			if spec.step > 0 {
				delay := map[string]time.Duration{}
				for _, c := range t.Children(id) {
					delay[nodeName(c)] = time.Duration(t.C(c)) * spec.step / 4
				}
				opts = append(opts, live.WithLinkDelay(func(child string) time.Duration { return delay[child] }))
			}
		}
		n, err := live.Start(nodeName(id), opts...)
		if err != nil {
			o.close()
			return nil, err
		}
		o.nodes = append(o.nodes, n)
	}
	return o, nil
}

// startWarm is the workload's whole set-up: payloads, node start,
// handshakes and the warm-up Runs.
func startWarm(spec overlaySpec, seed uint64, recorder int) (*overlay, error) {
	o, err := startOverlay(spec, seed, recorder)
	if err != nil {
		return nil, err
	}
	warm := spec.tasks
	if spec.warmTasks > 0 {
		warm = min(warm, spec.warmTasks)
	}
	for i := 0; i < spec.warmRuns; i++ {
		var m meter
		if failed, note := o.runOnce(warm, &m); failed > 0 {
			o.close()
			return nil, fmt.Errorf("warm-up Run: %s", note)
		}
	}
	return o, nil
}

func (o *overlay) close() {
	// Leaves first, so no node sees its parent vanish and starts redialling.
	for i := len(o.nodes) - 1; i >= 0; i-- {
		_ = o.nodes[i].Close() // Close only ever returns nil
	}
}

// runOnce runs the first n tasks as one application through the root,
// timing only root.Run, then checks the outputs: every task ID returned
// exactly once (Run guarantees distinct known IDs, so n results in ID
// order is all of them) and each output the expected one.
func (o *overlay) runOnce(n int, m *meter) (failed int64, note string) {
	var base uint64
	if len(o.bases) > 0 {
		base = o.bases[len(o.bases)-1] + uint64(len(o.tasks)) // Runs never share an ID
	}
	o.bases = append(o.bases, base)
	for i := 0; i < n; i++ {
		o.tasks[i].ID = base + uint64(i) + 1
	}
	rs := &runState{stamps: make([]int64, n), gate: make(chan struct{}), t0: time.Now()}
	rs.left.Store(int64(n - 1))
	o.cur.Store(rs)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var res []live.Result
	var err error
	m.time(func() { res, err = o.nodes[0].Run(ctx, o.tasks[:n]) })
	rs.open() // a failed Run must not leave the root's compute port blocked
	if err != nil {
		return int64(n), err.Error()
	}
	for k, r := range res {
		if r.ID != base+uint64(k)+1 || !bytes.Equal(r.Output, o.want[k%len(o.want)]) {
			failed++
			note = fmt.Sprintf("task %d: wrong id or output (got id %d, %d bytes)", base+uint64(k)+1, r.ID, len(r.Output))
		}
	}
	return failed, note
}

// totals are the counters of live.Stats the ledger uses, summed over
// nodes; frames and bytes are counted once, at their sender.
type totals struct {
	frames, bytes, requests, resultAcks, interrupts int64
	requeued, deduped, dropped                      int64
	computed                                        []int64 // per node
}

func (o *overlay) totals() totals {
	var t totals
	for _, n := range o.nodes {
		s := n.Stats()
		t.frames += s.FramesSent
		t.bytes += s.BytesSent
		t.requests += s.Requests
		t.resultAcks += s.ResultAcks
		t.interrupts += s.Interrupts
		t.requeued += s.Requeued
		t.deduped += s.ResultsDeduped
		t.dropped += s.RecorderDropped
		t.computed = append(t.computed, s.Computed)
	}
	return t
}

// minus returns the counter deltas since before; dropped stays absolute
// (the recorder must never have dropped anything).
func (t totals) minus(before totals) totals {
	d := totals{frames: t.frames - before.frames, bytes: t.bytes - before.bytes,
		requests: t.requests - before.requests, resultAcks: t.resultAcks - before.resultAcks,
		interrupts: t.interrupts - before.interrupts, requeued: t.requeued - before.requeued,
		deduped: t.deduped - before.deduped, dropped: t.dropped}
	for i := range t.computed {
		d.computed = append(d.computed, t.computed[i]-before.computed[i])
	}
	return d
}

// phase is one measured stretch of Runs on one overlay.
type phase struct {
	m         meter
	tasks     int64
	d         totals // counter deltas over the phase
	mallocs   uint64
	vsOptimal []float64 // rateVsOptimal of each Run
}

// measure runs applications back to back for the given time (at most
// maxRuns of them) and charges failures to out: wrong or missing outputs,
// any requeue or deduplicated result (nothing failed, so the recovery
// paths must stay cold), and a host-speed root that computed anything but
// its one task per Run.
func (o *overlay) measure(seconds float64, maxRuns int, out *outcome) *phase {
	p := &phase{}
	before := o.totals()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for p.m.elapsed() < seconds && len(p.m.wall) < maxRuns {
		failed, note := o.runOnce(o.spec.tasks, &p.m)
		p.tasks += int64(o.spec.tasks)
		if failed > 0 {
			out.fail(failed, "%s", note)
			continue // its completion stamps may be missing
		}
		p.vsOptimal = append(p.vsOptimal, o.spec.rateVsOptimal(o.cur.Load()))
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.d = o.totals().minus(before)
	out.attempted += p.tasks
	if n := p.d.requeued + p.d.deduped; n > 0 {
		out.fail(n, "%d tasks requeued, %d results deduplicated in a fault-free run", p.d.requeued, p.d.deduped)
	}
	if runs := int64(len(p.m.wall)); o.spec.step == 0 && p.d.computed[0] != runs {
		out.fail(max(p.d.computed[0]-runs, runs-p.d.computed[0]), "gated root computed %d tasks in %d Runs", p.d.computed[0], runs)
	}
	return p
}

// rateVsOptimal is the achieved rate over the middle half of a Run (task
// N/4 to 3N/4, stamped in the ComputeFunc wrappers) as a share of the
// Theorem 1 optimum 1/(W·step). At host speed nothing is modelled, so
// there is no optimum to fall short of and it reads 1.
func (s overlaySpec) rateVsOptimal(rs *runState) float64 {
	if s.step == 0 {
		return 1
	}
	st := append([]int64(nil), rs.stamps...)
	sort.Slice(st, func(i, j int) bool { return st[i] < st[j] })
	a, b := len(st)/4, 3*len(st)/4
	rate := float64(b-a) / (float64(st[b]-st[a]) / 1e9)
	return rate * optimal.Weight(s.tree).Float64() * s.step.Seconds()
}

func runOverlay(name string, spec overlaySpec, e env) (*outcome, error) {
	if e.trace {
		return traceOverlay(name, spec, e)
	}
	out := newOutcome()
	var o *overlay
	setups, err := timeSetups(e, func() (err error) {
		o, err = startWarm(spec, e.seed, -1)
		return err
	}, func() { o.close() })
	if err != nil {
		return nil, err
	}
	defer o.close()
	p := o.measure(e.seconds, math.MaxInt, out)
	out.samples["rate_vs_optimal"] = p.vsOptimal
	out.report(setups, &p.m, float64(spec.tasks), 1, median(p.vsOptimal))
	return out, nil
}
