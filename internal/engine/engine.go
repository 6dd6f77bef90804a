// Package engine executes an independent-task application on a platform
// tree under an autonomous scheduling protocol, using the discrete-event
// kernel in package sim.
//
// # Model
//
// The engine implements the paper's "base model": every node can
// simultaneously receive one task from its parent, send one task to one of
// its children, and compute one task. The root holds the application's
// task pool. Control traffic (a child's request for a task) is free, as in
// the paper.
//
// Task flow is request-driven. A node's buffer frees at the start of a
// local computation or of a downstream send, and each freed buffer
// immediately sends one request up (Section 3.1). The parent matches a
// request with a send when its port frees — or immediately, preempting a
// lower-priority send, under the interruptible protocol (Section 3.2). A
// preempted send is shelved with its remaining time and resumes when its
// child again has the highest priority among actionable work.
//
// Under the non-interruptible protocol nodes may grow buffers on exactly
// the paper's three events:
//
//	G1: the node's buffers all become empty while a child request is
//	    outstanding;
//	G2: a send completes while a child request is outstanding and the
//	    node's buffers are all empty;
//	G3: a computation completes and the node's buffers are all empty.
//
// Each growth adds one buffer and sends one request up.
//
// # Determinism
//
// Runs are fully deterministic: simultaneous events fire in scheduling
// order, child scans break ties by node ID, and the only randomness (the
// Random baseline order) is seeded. Identical Configs produce identical
// Results.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"bwcs/internal/protocol"
	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

// Event kinds used with the sim kernel.
const (
	evSendComplete sim.Kind = iota + 1
	evComputeComplete
	// evAppRelease opens a workload's pool at its scheduled release time
	// (multi-application runs only); Node carries the application index.
	evAppRelease
	// evSample is the timeline telemetry tick (Config.SampleEvery > 0
	// only); it re-schedules itself until the last task completes.
	evSample
)

const noChild int32 = -1

// Mutation changes a node or edge weight once a given number of tasks have
// completed. The paper's adaptability experiment (Figure 7) raises c1 from
// 1 to 3, or lowers w1 from 3 to 1, after 200 completed tasks. Changes
// apply to computations and transfers that start afterwards; work already
// in progress finishes at its original speed.
type Mutation struct {
	AfterTasks int64       // completed-task count that triggers the change
	Node       tree.NodeID // node whose weight changes
	W          int64       // new compute weight; 0 leaves it unchanged
	C          int64       // new communication weight; 0 leaves it unchanged
}

// Apply writes the mutation's weights into t. The engine applies it to
// its copy of the platform mid-run; applied to another copy, it gives the
// platform the run ends on, whose optimal rate is "the rate after".
func (m Mutation) Apply(t *tree.Tree) {
	if m.W > 0 {
		t.SetW(m.Node, m.W)
	}
	if m.C > 0 {
		t.SetC(m.Node, m.C)
	}
}

// AttachMutation grafts a subtree onto the running platform once a given
// number of tasks have completed, modeling resources joining the overlay —
// the dynamic-reconfiguration property the paper's Section 3 highlights.
type AttachMutation struct {
	AfterTasks int64
	Parent     tree.NodeID
	Subtree    *tree.Tree
	C          int64 // communication weight of the new uplink
}

// DepartMutation removes the subtree rooted at Node once a given number of
// tasks have completed, modeling resources leaving (or failing out of) the
// overlay. Every task the departing subtree held — buffered, computing, in
// flight or shelved toward it — is requeued at the root's pool and
// re-dispatched, the re-execution semantics of volunteer-computing
// platforms. Departed node IDs remain in the Result with their statistics
// frozen at departure time.
type DepartMutation struct {
	AfterTasks int64
	Node       tree.NodeID // must not be the root
}

// Config describes one simulation run.
type Config struct {
	Tree     *tree.Tree
	Protocol protocol.Protocol
	Tasks    int64 // number of application tasks at the root (single-application form)

	// Workloads runs several applications concurrently over the one tree
	// with weighted bandwidth-centric sharing (see Workload). Mutually
	// exclusive with Tasks: a Config sets one or the other. Single-
	// application callers keep using Tasks; the engine behaves
	// identically either way (a one-workload run is event-for-event the
	// Tasks run, with tags riding along).
	Workloads []Workload

	// Seed feeds the Random child-selection order; unused otherwise.
	Seed uint64

	// Checkpoints lists completed-task counts at which buffer statistics
	// are snapshotted (ascending). Table 2 uses {100, 1000, 4000}.
	Checkpoints []int64

	// Mutations are weight changes applied mid-run, in ascending
	// AfterTasks order. Attachments graft whole subtrees mid-run;
	// Departures remove them.
	Mutations   []Mutation
	Attachments []AttachMutation
	Departures  []DepartMutation

	// MaxSteps aborts the run after this many simulator events when
	// positive, as a runaway guard.
	MaxSteps uint64

	// Ctx, when non-nil, is checked for cancellation every few thousand
	// simulator events, so long sweeps over large platforms can be
	// abandoned (deadlines, ctrl-c) without waiting for the run to
	// drain. A nil Ctx runs to completion, the zero-cost default.
	Ctx context.Context

	// Tracer, when non-nil, observes every scheduling action as it
	// happens (see the trace package for recorders and renderers).
	// Tracing costs one virtual call per action; leave nil for sweeps.
	Tracer Tracer

	// SampleEvery, when positive, records timeline telemetry (completion
	// rate, link utilization, pool depth, per-application share) every
	// SampleEvery timesteps into Result.Timeline. Zero — the default —
	// disables sampling entirely; the event path then carries no
	// telemetry cost (pinned by TestTimelineDisabledZeroAllocs).
	SampleEvery sim.Time

	// TimelineCapacity caps the stored points per timeline series; on
	// overflow a series halves itself and doubles its resolution, so
	// memory stays O(TimelineCapacity) for any run length. Zero means
	// the package default (512); meaningful values are >= 2.
	TimelineCapacity int
}

// Tracer observes engine actions. Implementations must not retain the
// engine's state between calls; all arguments are values.
type Tracer interface {
	// ComputeStart fires when node starts computing a task that will
	// finish at the given time.
	ComputeStart(now sim.Time, node tree.NodeID, until sim.Time)
	// ComputeDone fires when a task completes; completed is the global
	// count including this task.
	ComputeDone(now sim.Time, node tree.NodeID, completed int64)
	// SendStart fires when parent begins (fromShelf=false) or resumes
	// (fromShelf=true) a transfer that will land at the given time.
	SendStart(now sim.Time, parent, child tree.NodeID, until sim.Time, fromShelf bool)
	// SendInterrupted fires when an in-flight transfer is shelved with the
	// given remaining time.
	SendInterrupted(now sim.Time, parent, child tree.NodeID, remaining sim.Time)
	// SendDone fires when a transfer lands in the child's buffer.
	SendDone(now sim.Time, parent, child tree.NodeID)
	// Requested fires when child asks its parent for one task.
	Requested(now sim.Time, child tree.NodeID)
	// Grew fires when node grows one buffer; capacity is the new pool
	// size.
	Grew(now sim.Time, node tree.NodeID, capacity int64)
}

// Validate reports whether the config can be run.
func (c *Config) Validate() error {
	if c.Tree == nil {
		return fmt.Errorf("engine: nil tree")
	}
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if c.Tasks < 0 {
		return fmt.Errorf("engine: negative task count %d", c.Tasks)
	}
	if err := validateWorkloads(c.Workloads, c.Tasks); err != nil {
		return err
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("engine: negative sample interval %d", c.SampleEvery)
	}
	if c.TimelineCapacity != 0 && c.TimelineCapacity < 2 {
		return fmt.Errorf("engine: timeline capacity %d, need 0 (default) or >= 2", c.TimelineCapacity)
	}
	if !slices.IsSorted(c.Checkpoints) {
		return fmt.Errorf("engine: checkpoints must be ascending")
	}
	for _, m := range c.Mutations {
		if !c.Tree.Valid(m.Node) {
			return fmt.Errorf("engine: mutation targets unknown node %d", m.Node)
		}
		if m.C != 0 && m.Node == c.Tree.Root() {
			return fmt.Errorf("engine: mutation sets c on the root")
		}
		if m.W < 0 || m.C < 0 {
			return fmt.Errorf("engine: mutation with negative weight")
		}
		if m.W == 0 && m.C == 0 {
			return fmt.Errorf("engine: mutation changes nothing")
		}
	}
	for _, a := range c.Attachments {
		if !c.Tree.Valid(a.Parent) {
			return fmt.Errorf("engine: attachment targets unknown node %d", a.Parent)
		}
		if a.Subtree == nil {
			return fmt.Errorf("engine: attachment with nil subtree")
		}
		if a.C <= 0 {
			return fmt.Errorf("engine: attachment with non-positive link weight %d", a.C)
		}
	}
	for _, d := range c.Departures {
		// Departures may target nodes that only exist after a mid-run
		// attachment, so IDs beyond the initial tree are checked when the
		// departure fires (unknown IDs are skipped and counted).
		if d.Node <= c.Tree.Root() {
			return fmt.Errorf("engine: departure of node %d (the root cannot depart)", d.Node)
		}
	}
	return nil
}

// NodeStat aggregates per-node counters over a run.
type NodeStat struct {
	Computed  int64 // tasks this node computed
	Received  int64 // tasks delivered into this node's buffers
	Forwarded int64 // tasks this node sent to children
	Requests  int64 // requests this node sent to its parent
	// Buffers is the final buffer capacity; MaxCapacity is the capacity
	// high-water (they differ only under decay, which shrinks the pool).
	Buffers     int64
	MaxCapacity int64
	// MaxQueued is the most tasks that ever sat in this node's buffers
	// simultaneously — the buffers the node actually *needed* (the
	// paper's m_i). Grown capacity beyond this was over-growth: requests
	// in excess of what the parent could ever fill.
	MaxQueued   int64
	Interrupted int64 // times a send from this node was preempted
	MaxShelved  int   // most simultaneously shelved transfers at this node
	Decayed     int64 // buffers retired by the decay rule
	Departed    bool  // the node left the platform mid-run
}

// CheckpointStat snapshots platform-wide buffer usage when a given number
// of tasks had completed.
type CheckpointStat struct {
	AfterTasks     int64
	Time           sim.Time
	MaxNodeBuffers int64 // largest buffer capacity at any single node
	TotalBuffers   int64 // capacity summed over all nodes
	MaxNodeUsed    int64 // largest per-node queued-tasks high-water so far
}

// Result is the outcome of a run.
type Result struct {
	// Tree is the engine's working copy of the platform, including any
	// mutations and attachments applied during the run.
	Tree *tree.Tree
	// Completions[k] is the time the (k+1)'th task completed, ascending.
	Completions []sim.Time
	Makespan    sim.Time
	Nodes       []NodeStat
	Checkpoints []CheckpointStat
	Steps       uint64
	// Requeued counts tasks returned to the root's pool by departures and
	// re-dispatched.
	Requeued int64
	// SkippedMutations counts mutations and attachments that targeted a
	// node which had already departed and were therefore ignored.
	SkippedMutations int
	// Apps is the per-application breakdown of a multi-workload run, in
	// Config.Workloads order; nil for single-application (Tasks) runs.
	Apps []AppResult
	// Metrics is the run's engine-wide instrumentation snapshot.
	Metrics Metrics
	// Timeline holds the run's sampled telemetry when Config.SampleEvery
	// was positive; nil otherwise. Unlike the slices above, the Timeline
	// is a copy — it stays valid across Runner reuse.
	Timeline *Timeline
}

// UsedCount returns how many nodes computed at least one task.
func (r *Result) UsedCount() int {
	n := 0
	for i := range r.Nodes {
		if r.Nodes[i].Computed > 0 {
			n++
		}
	}
	return n
}

// UsedMaxDepth returns the depth of the deepest node that computed at
// least one task, or 0 if only the root worked.
func (r *Result) UsedMaxDepth() int {
	max := 0
	for i := range r.Nodes {
		if r.Nodes[i].Computed > 0 {
			if d := r.Tree.Depth(tree.NodeID(i)); d > max {
				max = d
			}
		}
	}
	return max
}

// MaxNodeBuffers returns the largest final buffer capacity at any node.
func (r *Result) MaxNodeBuffers() int64 {
	var max int64
	for i := range r.Nodes {
		if r.Nodes[i].Buffers > max {
			max = r.Nodes[i].Buffers
		}
	}
	return max
}

// MaxNodeUsed returns the largest number of tasks that ever sat in any
// single node's buffers — the per-node buffer count the run actually
// needed, which is what the paper's Tables 1 and 2 measure.
func (r *Result) MaxNodeUsed() int64 {
	var max int64
	for i := range r.Nodes {
		if r.Nodes[i].MaxQueued > max {
			max = r.Nodes[i].MaxQueued
		}
	}
	return max
}

// TotalBuffers returns the final buffer capacity summed over all nodes.
func (r *Result) TotalBuffers() int64 {
	var sum int64
	for i := range r.Nodes {
		sum += r.Nodes[i].Buffers
	}
	return sum
}

// shelf is a preempted transfer toward a node, kept in that node's own
// state (a child has at most one transfer in flight or shelved):
// remaining send time, plus the request-arrival time that FCFS ordering
// uses and the application tag of the task in flight.
type shelf struct {
	remaining sim.Time
	since     sim.Time
	app       int32
}

// nodeState is the runtime state of one platform node.
type nodeState struct {
	// w, c and parent mirror the tree (Mutations update both), so the
	// event path never calls into package tree.
	w, c   int64
	parent int32

	// children lists the live children: in tree order under FCFS,
	// RoundRobin and Random, and in priority order — ascending c
	// (BandwidthCentric) or w (ComputeCentric), ties by ID — under the
	// two orders whose key is static. sortChildren restores that order
	// wherever a key or the list changes: initNodes and Mutations.
	children []int32

	capacity    int64 // current buffer count
	maxCapacity int64 // high-water of capacity
	occupied    int64 // tasks sitting in buffers
	maxOccupied int64 // high-water of occupied

	// reqPending is the number of this node's requests outstanding at its
	// parent; reqSince is when the oldest of them was sent (for FCFS).
	reqPending int64
	reqSince   sim.Time

	// incoming is true while a transfer to this node is in flight or
	// shelved at the parent; the receiving buffer is reserved.
	incoming bool

	computing bool
	sending   int32 // child currently being sent to, or noChild
	sendEv    *sim.Event
	sendSince sim.Time // request time backing the current send (FCFS)
	shelves   int      // children with a shelved transfer

	// shelved is true while a preempted transfer toward this node waits
	// at its parent, described by shelf.
	shelved bool
	shelf   shelf

	// childReqCount counts children with reqPending > 0, so growth checks
	// are O(1).
	childReqCount int
	rrNext        int // round-robin cursor into children

	computeEv *sim.Event // pending compute completion, for cancellation

	// Multi-application tagging (nil / unused in single-application
	// runs): occApp[a] is how many of the occupied tasks belong to
	// application a, appCredit the node's weighted round-robin state, and
	// computingApp / sendingApp tag the tasks on the compute port and in
	// flight at the send port.
	occApp       []int64
	appCredit    []int64
	computingApp int32
	sendingApp   int32

	// Decay bookkeeping: decayStreak counts completions since the buffers
	// last ran empty; pendingDecay buffers will be retired as they free.
	decayStreak  int64
	pendingDecay int64

	departed bool

	stat NodeStat
}

type engine struct {
	cfg   Config
	t     *tree.Tree
	s     *sim.Simulator
	nodes []nodeState
	rng   *rand.Rand
	src   *rand.PCG // rng's source, so a test can rewind it

	trace Tracer
	met   Metrics

	pool        int64 // undispatched tasks at the root
	requeued    int64
	skippedMut  int
	completed   int64
	completions []sim.Time

	// statsBuf backs Result.Nodes, reused across a Runner's runs.
	statsBuf []NodeStat

	// Multi-application state (empty in single-application runs): one
	// released pool, weight, completion stream and requeue counter per
	// workload. totalTasks is the sum over workloads (== cfg.Tasks in
	// single-application runs).
	multi          bool
	totalTasks     int64
	pools          []int64
	appWeights     []int64
	appCompletions [][]sim.Time
	appRequeued    []int64

	// tl is the timeline sampling state; nil unless Config.SampleEvery is
	// positive, and every hook checks for nil so the disabled path stays
	// allocation- and branch-cheap.
	tl *timeline

	checkpoints []CheckpointStat
	mutIdx      int
	attIdx      int
	depIdx      int
	ckIdx       int
}

// Runner executes simulation runs while reusing the expensive run state
// across calls: the simulator (and with it the event free list), the
// per-node runtime-state table with its child lists, and the completions
// and node-statistics buffers. A sweep worker that evaluates thousands
// of trees through one Runner allocates this state once instead of per
// tree; at paper scale this removes most of the engine's per-run
// allocation profile.
//
// A Runner is not safe for concurrent use: run one per goroutine. The
// Result returned by Run — including its Completions, Nodes and
// Checkpoints slices — aliases the Runner's buffers and is valid only
// until the next Run call on the same Runner; callers that retain a
// Result across runs must copy what they keep. The package-level Run
// uses a fresh Runner per call and its Results are immortal, as before.
type Runner struct {
	e engine
}

// NewRunner returns an empty Runner; its buffers grow to fit the runs it
// executes and are then recycled.
func NewRunner() *Runner {
	r := &Runner{}
	r.e.s = sim.New(&r.e)
	return r
}

// Run simulates cfg to completion, reusing the Runner's buffers. Results
// are bit-identical to the package-level Run on the same Config.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.e.run(cfg)
}

// Run simulates cfg to completion and returns the result. It returns an
// error if the configuration is invalid, the run exceeds MaxSteps, or the
// simulation deadlocks before all tasks complete (which would indicate an
// engine bug; the test suite exercises this path with fault injection).
func Run(cfg Config) (*Result, error) {
	return NewRunner().Run(cfg)
}

// reset rebuilds e for a new run, recycling the buffers that matter:
// the simulator's event free list, the nodes table (initNodes reuses the
// per-element child arrays), completions, checkpoints and the
// node-statistics buffer. Every other field restarts at its zero value.
func (e *engine) reset(cfg Config) {
	// The engine only writes to the tree when the config carries mid-run
	// mutations or attachments; a plain run can execute on the caller's
	// tree directly, which keeps the sweep hot path clone-free.
	t := cfg.Tree
	if len(cfg.Mutations) > 0 || len(cfg.Attachments) > 0 {
		t = cfg.Tree.Clone()
	}
	*e = engine{
		cfg:         cfg,
		t:           t,
		s:           e.s,
		nodes:       e.nodes,
		completions: e.completions[:0],
		checkpoints: e.checkpoints[:0],
		statsBuf:    e.statsBuf,
		pool:        cfg.Tasks,
		totalTasks:  cfg.Tasks,
		trace:       cfg.Tracer,
	}
	e.s.Reset()
}

func (e *engine) run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e.reset(cfg)
	if cfg.Protocol.Order == protocol.Random {
		e.src = rand.NewPCG(cfg.Seed, 0xda3e39cb94b95bdb)
		e.rng = rand.New(e.src)
	}
	if len(cfg.Workloads) > 0 {
		e.multi = true
		e.pool = 0
		e.totalTasks = 0
		e.pools = make([]int64, len(cfg.Workloads))
		e.appWeights = make([]int64, len(cfg.Workloads))
		e.appCompletions = make([][]sim.Time, len(cfg.Workloads))
		e.appRequeued = make([]int64, len(cfg.Workloads))
		for a, w := range cfg.Workloads {
			e.totalTasks += w.Tasks
			e.appWeights[a] = w.weight()
			e.appCompletions[a] = make([]sim.Time, 0, w.Tasks)
			if w.Release <= 0 {
				e.pools[a] = w.Tasks
				e.pool += w.Tasks
			}
		}
	}
	if cap(e.completions) < int(e.totalTasks) {
		e.completions = make([]sim.Time, 0, e.totalTasks)
	}

	e.initNodes(0)
	if cfg.SampleEvery > 0 {
		// Before the t=0 scheduling pass, so the very first sends are
		// stamped for utilization accounting.
		e.initTimeline()
	}

	// Workloads arriving mid-run open their pools at their release times.
	for a, w := range cfg.Workloads {
		if w.Release > 0 {
			e.s.Schedule(w.Release, evAppRelease, int32(a), 0)
		}
	}

	// All nodes issue their initial requests (one per empty buffer) before
	// anyone acts, so t=0 scheduling sees the complete picture rather than
	// an artifact of initialization order.
	for id := 1; id < len(e.nodes); id++ {
		e.requestInitial(int32(id))
	}
	for id := range e.nodes {
		e.trySchedule(int32(id))
	}

	if err := e.runEvents(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps > 0 && e.s.Steps() >= cfg.MaxSteps && e.completed < e.totalTasks {
		return nil, fmt.Errorf("engine: aborted after %d steps with %d/%d tasks complete", e.s.Steps(), e.completed, e.totalTasks)
	}
	if e.completed != e.totalTasks {
		return nil, fmt.Errorf("engine: deadlock: simulation drained with %d/%d tasks complete", e.completed, e.totalTasks)
	}

	if cap(e.statsBuf) < len(e.nodes) {
		e.statsBuf = make([]NodeStat, len(e.nodes))
	}
	res := &Result{
		Tree:             e.t,
		Completions:      e.completions,
		Makespan:         e.s.Now(),
		Nodes:            e.statsBuf[:len(e.nodes)],
		Checkpoints:      e.checkpoints,
		Steps:            e.s.Steps(),
		Requeued:         e.requeued,
		SkippedMutations: e.skippedMut,
	}
	if e.multi {
		res.Apps = make([]AppResult, len(cfg.Workloads))
		for a, w := range cfg.Workloads {
			res.Apps[a] = AppResult{
				App:         w.App,
				Weight:      w.weight(),
				Release:     w.Release,
				Tasks:       w.Tasks,
				Completions: e.appCompletions[a],
				Requeued:    e.appRequeued[a],
			}
		}
	}
	for i := range e.nodes {
		res.Nodes[i] = e.nodes[i].stat
		res.Nodes[i].Buffers = e.nodes[i].capacity
		res.Nodes[i].MaxCapacity = e.nodes[i].maxCapacity
		res.Nodes[i].MaxQueued = e.nodes[i].maxOccupied
		res.Nodes[i].Departed = e.nodes[i].departed
		if e.nodes[i].stat.MaxShelved > e.met.PeakShelved {
			e.met.PeakShelved = e.nodes[i].stat.MaxShelved
		}
		if e.nodes[i].maxOccupied > e.met.PeakOccupied {
			e.met.PeakOccupied = e.nodes[i].maxOccupied
		}
	}
	e.met.Events = e.s.Steps()
	e.met.PeakPending = e.s.PeakPending()
	e.met.FreeListHits = e.s.FreeListHits()
	e.met.EventAllocs = e.s.Allocs()
	e.met.EventsCancels = e.s.Cancelled()
	res.Metrics = e.met
	if e.tl != nil {
		res.Timeline = e.timelineResult()
	}
	return res, nil
}

// ctxCheckEvery is how many simulator events fire between cancellation
// checks — coarse enough that the check is free relative to event
// handling, fine enough that cancellation lands within microseconds.
const ctxCheckEvery = 4096

// runEvents drains the event queue, honoring MaxSteps and, when a
// context is configured, polling it for cancellation between batches.
func (e *engine) runEvents() error {
	if e.cfg.Ctx == nil {
		e.s.Run(e.cfg.MaxSteps)
		return nil
	}
	var fired uint64
	for {
		if err := e.cfg.Ctx.Err(); err != nil {
			return fmt.Errorf("engine: run canceled after %d events with %d/%d tasks complete: %w",
				e.s.Steps(), e.completed, e.totalTasks, err)
		}
		limit := uint64(ctxCheckEvery)
		if e.cfg.MaxSteps > 0 {
			if rem := e.cfg.MaxSteps - fired; rem < limit {
				limit = rem
			}
			if limit == 0 {
				return nil
			}
		}
		k := e.s.Run(limit)
		fired += k
		if k < limit {
			return nil // queue drained
		}
	}
}

// initNodes (re)builds runtime state for tree nodes with ID >= from,
// preserving existing state below from. Attachments use it to extend the
// node table mid-run.
func (e *engine) initNodes(from int) {
	n := e.t.Len()
	if cap(e.nodes) < n {
		grown := make([]nodeState, n)
		copy(grown, e.nodes)
		e.nodes = grown
	} else {
		e.nodes = e.nodes[:n]
	}
	for id := from; id < n; id++ {
		kids := e.t.Children(tree.NodeID(id))
		ns := &e.nodes[id]
		// Recycle the element's child backing array across runs (a Runner
		// keeps the nodes table; fresh elements start nil).
		children := ns.children[:0]
		*ns = nodeState{
			w:           e.t.W(tree.NodeID(id)),
			c:           e.t.C(tree.NodeID(id)),
			parent:      int32(e.t.Parent(tree.NodeID(id))),
			capacity:    int64(e.cfg.Protocol.InitialBuffers),
			maxCapacity: int64(e.cfg.Protocol.InitialBuffers),
			sending:     noChild,
		}
		for _, k := range kids {
			children = append(children, int32(k))
		}
		ns.children = children
		if e.multi {
			ns.occApp = make([]int64, len(e.cfg.Workloads))
			ns.appCredit = make([]int64, len(e.cfg.Workloads))
			ns.sendingApp = -1
			ns.computingApp = -1
		}
	}
	// Parents of newly attached nodes gain children; refresh child lists
	// for all pre-existing nodes too (cheap relative to a run).
	for id := 0; id < from; id++ {
		kids := e.t.Children(tree.NodeID(id))
		if len(kids) != len(e.nodes[id].children) {
			children := make([]int32, len(kids))
			for i, k := range kids {
				children[i] = int32(k)
			}
			e.nodes[id].children = children
			e.sortChildren(int32(id))
		}
	}
	// Once every new node's key is in the table.
	for id := from; id < n; id++ {
		e.sortChildren(int32(id))
	}
}

// sortChildren puts node n's child list in priority order when the
// protocol's order has a static key; the other orders keep tree order.
func (e *engine) sortChildren(n int32) {
	switch e.cfg.Protocol.Order {
	case protocol.BandwidthCentric, protocol.ComputeCentric:
		slices.SortFunc(e.nodes[n].children, func(a, b int32) int {
			return cmp.Or(cmp.Compare(e.priorityKey(a, 0), e.priorityKey(b, 0)), cmp.Compare(a, b))
		})
	}
}

// Handle dispatches simulator events.
func (e *engine) Handle(ev *sim.Event) {
	switch ev.Kind {
	case evSendComplete:
		e.onSendComplete(ev.Node, ev.Child)
	case evComputeComplete:
		e.onComputeComplete(ev.Node)
	case evAppRelease:
		e.onAppRelease(ev.Node)
	case evSample:
		e.onSample()
	default:
		panic(fmt.Sprintf("engine: unknown event kind %d", ev.Kind))
	}
}

// hasTask reports whether node n holds a task it could compute or send.
func (e *engine) hasTask(n int32) bool {
	if n == 0 {
		return e.pool > 0
	}
	return e.nodes[n].occupied > 0
}

// takeTask removes one task from n's buffers (or the root pool) for
// immediate use, firing the freed-buffer request and the G1 growth check.
// It returns the application tag of the task taken — always 0 for
// single-application runs; for multi-workload runs the weighted
// round-robin picks among the applications with a task available here.
func (e *engine) takeTask(n int32) int32 {
	var app int32
	if e.multi {
		app = e.pickApp(n)
	}
	if n == 0 {
		if e.pool <= 0 {
			panic("engine: takeTask on empty pool")
		}
		e.pool--
		if e.multi {
			e.pools[app]--
		}
		return app
	}
	ns := &e.nodes[n]
	if ns.occupied <= 0 {
		panic("engine: takeTask on empty buffers")
	}
	ns.occupied--
	if e.multi {
		ns.occApp[app]--
	}
	if ns.occupied == 0 {
		// Starvation observed: reset the decay observation window.
		ns.decayStreak = 0
	}
	if ns.pendingDecay > 0 && ns.capacity > int64(e.cfg.Protocol.InitialBuffers) {
		// Retire this freed buffer instead of requesting a refill.
		ns.pendingDecay--
		ns.capacity--
		ns.stat.Decayed++
		e.met.Decays++
	} else {
		e.request(n)
	}
	// G1: buffers just became all empty while a child request waits.
	if ns.occupied == 0 && ns.childReqCount > 0 {
		e.growBuffer(n)
	}
	return app
}

// request sends one task request from node n to its parent. Requests are
// control traffic and arrive instantly, per the paper's model.
func (e *engine) request(n int32) {
	ns := &e.nodes[n]
	if ns.reqPending == 0 {
		ns.reqSince = e.s.Now()
	}
	ns.reqPending++
	ns.stat.Requests++
	e.met.Requests++
	if e.trace != nil {
		e.trace.Requested(e.s.Now(), tree.NodeID(n))
	}
	if ns.reqPending == 1 {
		e.nodes[ns.parent].childReqCount++
	}
	e.trySchedule(ns.parent)
}

// requestInitial issues node n's startup requests, one per empty buffer,
// without triggering parent scheduling (the caller schedules everyone once
// all requests are placed).
func (e *engine) requestInitial(n int32) {
	ns := &e.nodes[n]
	ns.reqPending = ns.capacity
	ns.reqSince = 0
	ns.stat.Requests += ns.capacity
	e.nodes[ns.parent].childReqCount++
}

// growBuffer adds one buffer to node n under the growth protocol and
// requests a task to fill it. The root never grows (it owns the pool).
func (e *engine) growBuffer(n int32) {
	if n == 0 || !e.cfg.Protocol.Grow {
		return
	}
	ns := &e.nodes[n]
	if max := int64(e.cfg.Protocol.MaxBuffers); max > 0 && ns.capacity >= max {
		return
	}
	ns.capacity++
	if ns.capacity > ns.maxCapacity {
		ns.maxCapacity = ns.capacity
	}
	e.met.Grows++
	if e.trace != nil {
		e.trace.Grew(e.s.Now(), tree.NodeID(n), ns.capacity)
	}
	e.request(n)
}

// onSendComplete delivers a task from parent p to child c.
func (e *engine) onSendComplete(p, c int32) {
	ps := &e.nodes[p]
	cs := &e.nodes[c]
	if ps.sending != c {
		panic("engine: send completion for wrong child")
	}
	if e.tl != nil {
		e.tlSendStop(p)
	}
	app := ps.sendingApp
	ps.sending = noChild
	ps.sendEv = nil
	cs.incoming = false
	cs.occupied++
	if e.multi {
		cs.occApp[app]++
	}
	if cs.occupied > cs.maxOccupied {
		cs.maxOccupied = cs.occupied
	}
	cs.stat.Received++
	e.met.SendsCompleted++
	if e.trace != nil {
		e.trace.SendDone(e.s.Now(), tree.NodeID(p), tree.NodeID(c))
	}

	// G2: send completed, a child still waits, and buffers are all empty.
	if ps.occupied == 0 && ps.childReqCount > 0 && p != 0 {
		e.growBuffer(p)
	}

	// The child first (it may consume the task and re-request), then the
	// parent's freed port.
	e.trySchedule(c)
	e.trySchedule(p)
}

// onComputeComplete finishes a task at node n.
func (e *engine) onComputeComplete(n int32) {
	ns := &e.nodes[n]
	if !ns.computing {
		panic("engine: compute completion while idle")
	}
	ns.computing = false
	ns.computeEv = nil
	ns.stat.Computed++
	e.met.ComputesDone++
	e.decayTick(n)
	e.completed++
	e.completions = append(e.completions, e.s.Now())
	if e.multi {
		a := ns.computingApp
		e.appCompletions[a] = append(e.appCompletions[a], e.s.Now())
	}
	if e.trace != nil {
		e.trace.ComputeDone(e.s.Now(), tree.NodeID(n), e.completed)
	}
	if e.tl != nil && e.completed == e.totalTasks {
		// The run is over: flush the partial final interval and cancel the
		// pending tick so it cannot outlive the last completion (Makespan
		// is the time of the last fired event).
		e.finishTimeline()
	}
	e.atCompletion()
	// Attachments inside atCompletion may reallocate the node table.
	ns = &e.nodes[n]

	// G3: computation completed with all buffers empty.
	if ns.occupied == 0 && n != 0 {
		e.growBuffer(n)
	}
	e.trySchedule(n)
}

// decayTick advances node n's decay window after a completed task: a long
// enough streak of completions without starvation retires one grown
// buffer.
func (e *engine) decayTick(n int32) {
	if n == 0 || !e.cfg.Protocol.Decay {
		return
	}
	ns := &e.nodes[n]
	if ns.capacity <= int64(e.cfg.Protocol.InitialBuffers) {
		ns.decayStreak = 0
		return
	}
	window := int64(e.cfg.Protocol.DecayWindow)
	if window <= 0 {
		window = protocol.DefaultDecayWindow
	}
	ns.decayStreak++
	if ns.decayStreak >= window {
		ns.pendingDecay++
		ns.decayStreak = 0
	}
}

// atCompletion fires checkpoints, mutations and attachments tied to the
// global completed-task count.
func (e *engine) atCompletion() {
	for e.ckIdx < len(e.cfg.Checkpoints) && e.completed >= e.cfg.Checkpoints[e.ckIdx] {
		snap := CheckpointStat{AfterTasks: e.cfg.Checkpoints[e.ckIdx], Time: e.s.Now()}
		for i := range e.nodes {
			if b := e.nodes[i].capacity; b > snap.MaxNodeBuffers {
				snap.MaxNodeBuffers = b
			}
			snap.TotalBuffers += e.nodes[i].capacity
			if u := e.nodes[i].maxOccupied; u > snap.MaxNodeUsed {
				snap.MaxNodeUsed = u
			}
		}
		e.checkpoints = append(e.checkpoints, snap)
		e.ckIdx++
	}
	for e.mutIdx < len(e.cfg.Mutations) && e.completed >= e.cfg.Mutations[e.mutIdx].AfterTasks {
		m := e.cfg.Mutations[e.mutIdx]
		if e.nodes[m.Node].departed {
			e.skippedMut++
		} else {
			ns := &e.nodes[m.Node]
			m.Apply(e.t)
			ns.w, ns.c = e.t.W(m.Node), e.t.C(m.Node)
			if m.Node != e.t.Root() {
				e.sortChildren(ns.parent)
			}
		}
		e.mutIdx++
	}
	for e.depIdx < len(e.cfg.Departures) && e.completed >= e.cfg.Departures[e.depIdx].AfterTasks {
		if n := e.cfg.Departures[e.depIdx].Node; int(n) < len(e.nodes) {
			e.depart(n)
		} else {
			e.skippedMut++
		}
		e.depIdx++
	}
	for e.attIdx < len(e.cfg.Attachments) && e.completed >= e.cfg.Attachments[e.attIdx].AfterTasks {
		a := e.cfg.Attachments[e.attIdx]
		if e.nodes[a.Parent].departed {
			e.skippedMut++
			e.attIdx++
			continue
		}
		before := e.t.Len()
		e.t.Attach(a.Parent, a.Subtree, a.C)
		e.initNodes(before)
		for id := before; id < e.t.Len(); id++ {
			e.requestInitial(int32(id))
		}
		for id := before; id < e.t.Len(); id++ {
			e.trySchedule(int32(id))
		}
		e.trySchedule(int32(a.Parent))
		e.attIdx++
	}
}

// trySchedule lets node n start any action it can: computing a buffered
// task, starting or resuming a send, or (interruptible protocol)
// preempting its current send for higher-priority work.
func (e *engine) trySchedule(n int32) {
	ns := &e.nodes[n]
	if ns.departed {
		return
	}

	// CPU: the node itself is the highest-priority consumer (its
	// "communication time" is zero).
	if !ns.computing && e.hasTask(n) {
		app := e.takeTask(n)
		if e.multi {
			ns.computingApp = app
		}
		ns.computing = true
		e.met.ComputesStarted++
		ns.computeEv = e.s.Schedule(sim.Time(ns.w), evComputeComplete, n, 0)
		if e.trace != nil {
			e.trace.ComputeStart(e.s.Now(), tree.NodeID(n), ns.computeEv.At())
		}
	}

	// Send port.
	if ns.sending != noChild {
		if !e.cfg.Protocol.Interruptible {
			return
		}
		best, isShelf := e.bestCandidate(n)
		if best < 0 {
			return
		}
		if !e.higherPriority(best, isShelf, ns.sending, ns.sendSince) {
			return
		}
		// Preempt: shelve the in-flight transfer with its remaining time.
		if e.tl != nil {
			e.tlSendStop(n)
		}
		remaining := e.s.Cancel(ns.sendEv)
		cur := &e.nodes[ns.sending]
		cur.shelved, cur.shelf = true, shelf{remaining: remaining, since: ns.sendSince, app: ns.sendingApp}
		ns.shelves++
		if ns.shelves > ns.stat.MaxShelved {
			ns.stat.MaxShelved = ns.shelves
		}
		ns.stat.Interrupted++
		e.met.SendsInterrupted++
		if e.trace != nil {
			e.trace.SendInterrupted(e.s.Now(), tree.NodeID(n), tree.NodeID(ns.sending), remaining)
		}
		ns.sending = noChild
		ns.sendEv = nil
		e.startSend(n, best, isShelf)
		return
	}

	best, isShelf := e.bestCandidate(n)
	if best >= 0 {
		e.startSend(n, best, isShelf)
	}
}

// startSend begins (or resumes) a transfer from n to child c.
func (e *engine) startSend(n, c int32, fromShelf bool) {
	ns := &e.nodes[n]
	cs := &e.nodes[c]
	if fromShelf {
		if !cs.shelved {
			panic("engine: resume of missing shelf")
		}
		cs.shelved = false
		ns.shelves--
		ns.sending = c
		ns.sendSince = cs.shelf.since
		ns.sendingApp = cs.shelf.app
		e.met.SendsResumed++
		if e.tl != nil {
			e.tlSendStart(n)
		}
		ns.sendEv = e.s.Schedule(cs.shelf.remaining, evSendComplete, n, c)
		if e.trace != nil {
			e.trace.SendStart(e.s.Now(), tree.NodeID(n), tree.NodeID(c), ns.sendEv.At(), true)
		}
		return
	}
	since := cs.reqSince
	cs.reqPending--
	if cs.reqPending == 0 {
		ns.childReqCount--
	} else {
		// Remaining requests are at least as old; keep reqSince as an
		// upper bound of the oldest (requests are FIFO per child, and all
		// carry the same effective age for FCFS purposes).
		cs.reqSince = e.s.Now()
	}
	cs.incoming = true
	app := e.takeTask(n)
	if e.multi {
		ns.sendingApp = app
	}
	ns.stat.Forwarded++
	ns.sending = c
	ns.sendSince = since
	e.met.SendsStarted++
	if e.tl != nil {
		e.tlSendStart(n)
	}
	ns.sendEv = e.s.Schedule(sim.Time(cs.c), evSendComplete, n, c)
	if e.trace != nil {
		e.trace.SendStart(e.s.Now(), tree.NodeID(n), tree.NodeID(c), ns.sendEv.At(), false)
	}
}

// bestCandidate returns the highest-priority actionable work at node n's
// send port: either a shelved transfer (resumable unconditionally) or a
// child with an outstanding request (requires a task on hand and no
// transfer already in flight or shelved for that child). Returns (-1,
// false) when there is nothing to do.
func (e *engine) bestCandidate(n int32) (child int32, isShelf bool) {
	ns := &e.nodes[n]
	canFresh := ns.childReqCount > 0 && e.hasTask(n)
	if !canFresh && ns.shelves == 0 {
		return -1, false
	}
	switch e.cfg.Protocol.Order {
	case protocol.RoundRobin:
		return e.roundRobinCandidate(n, canFresh)
	case protocol.Random:
		return e.randomCandidate(n, canFresh)
	}
	fcfs := e.cfg.Protocol.Order == protocol.FCFS
	child = -1
	var oldest sim.Time
	for _, c := range ns.children {
		cs := &e.nodes[c]
		if !cs.actionable(canFresh) {
			continue
		}
		if !fcfs {
			return c, cs.shelved // children are in priority order
		}
		since := cs.reqSince
		if cs.shelved {
			since = cs.shelf.since
		}
		if child < 0 || since < oldest || (since == oldest && c < child) {
			child, isShelf, oldest = c, cs.shelved, since
		}
	}
	return child, isShelf
}

// actionable reports whether the node's parent has something to send it:
// its shelved transfer, or, when the parent can start a fresh one, a task
// for a pending request with no transfer already on the way.
func (cs *nodeState) actionable(canFresh bool) bool {
	return cs.shelved || (canFresh && cs.reqPending > 0 && !cs.incoming)
}

// priorityKey returns the sort key (lower is higher priority) of serving
// child c under the protocol's order; since is the arrival time of the
// request behind the transfer, which only FCFS reads.
func (e *engine) priorityKey(c int32, since sim.Time) int64 {
	switch e.cfg.Protocol.Order {
	case protocol.BandwidthCentric:
		return e.nodes[c].c
	case protocol.ComputeCentric:
		return e.nodes[c].w
	case protocol.FCFS:
		return int64(since)
	default:
		panic(fmt.Sprintf("engine: priorityKey with order %v", e.cfg.Protocol.Order))
	}
}

// higherPriority reports whether serving cand (a shelf if candShelf) beats
// continuing the current send to cur, whose backing request arrived at
// curSince.
func (e *engine) higherPriority(cand int32, candShelf bool, cur int32, curSince sim.Time) bool {
	candSince := e.nodes[cand].reqSince
	if candShelf {
		candSince = e.nodes[cand].shelf.since
	}
	return e.priorityKey(cand, candSince) < e.priorityKey(cur, curSince)
}

// roundRobinCandidate scans children cyclically from the cursor; shelved
// transfers for a child take precedence over fresh sends to it.
func (e *engine) roundRobinCandidate(n int32, canFresh bool) (int32, bool) {
	ns := &e.nodes[n]
	k := len(ns.children)
	for i := 0; i < k; i++ {
		c := ns.children[(ns.rrNext+i)%k]
		cs := &e.nodes[c]
		if cs.actionable(canFresh) {
			ns.rrNext = (ns.rrNext + i + 1) % k
			return c, cs.shelved
		}
	}
	return -1, false
}

// randomCandidate picks uniformly among actionable children.
func (e *engine) randomCandidate(n int32, canFresh bool) (int32, bool) {
	ns := &e.nodes[n]
	var pick int32 = -1
	pickShelf := false
	count := 0
	for _, c := range ns.children {
		cs := &e.nodes[c]
		if !cs.actionable(canFresh) {
			continue
		}
		count++
		if e.rng.IntN(count) == 0 {
			pick, pickShelf = c, cs.shelved
		}
	}
	return pick, pickShelf
}

// depart removes the subtree rooted at node from the running platform.
// Every task the subtree held — buffered, computing, in flight within it,
// or in flight/shelved toward it from its parent — returns to the root's
// pool for re-dispatch. The departed nodes' statistics freeze; their IDs
// stay valid in the Result.
func (e *engine) depart(node tree.NodeID) {
	if e.nodes[node].departed {
		return // departing an already-gone subtree is a no-op
	}
	parent := int32(e.t.Parent(node))
	ps := &e.nodes[parent]
	if ps.departed {
		// The whole branch is already gone.
		return
	}

	var lost int64
	var lostApp []int64
	if e.multi {
		lostApp = make([]int64, len(e.cfg.Workloads))
	}

	// Parent side first: cancel the transfer in flight toward the
	// departing root and drop its outstanding requests.
	n32 := int32(node)
	if ps.sending == n32 {
		if e.tl != nil {
			e.tlSendStop(parent)
		}
		e.s.Cancel(ps.sendEv)
		if e.multi {
			lostApp[ps.sendingApp]++
		}
		ps.sending = noChild
		ps.sendEv = nil
		lost++
	}
	if e.nodes[node].reqPending > 0 {
		ps.childReqCount--
	}
	for i, c := range ps.children {
		if c == n32 {
			ps.children = append(ps.children[:i], ps.children[i+1:]...)
			break
		}
	}

	// Subtree side: cancel all work in progress and reclaim held tasks.
	for _, sid := range e.t.Subtree(node) {
		ns := &e.nodes[sid]
		ns.departed = true
		ns.stat.Departed = true
		lost += ns.occupied
		ns.occupied = 0
		if e.multi {
			for a, k := range ns.occApp {
				lostApp[a] += k
				ns.occApp[a] = 0
			}
		}
		if ns.computing {
			e.s.Cancel(ns.computeEv)
			if e.multi {
				lostApp[ns.computingApp]++
			}
			ns.computing = false
			ns.computeEv = nil
			lost++
		}
		if ns.sending != noChild {
			if e.tl != nil {
				e.tlSendStop(int32(sid))
			}
			e.s.Cancel(ns.sendEv)
			if e.multi {
				lostApp[ns.sendingApp]++
			}
			ns.sending = noChild
			ns.sendEv = nil
			lost++
		}
		if ns.shelved {
			// The transfer toward sid shelved at its parent goes with it —
			// for node itself that parent survives, and must not resume it.
			ns.shelved = false
			e.nodes[ns.parent].shelves--
			if e.multi {
				lostApp[ns.shelf.app]++
			}
			lost++
		}
		ns.reqPending = 0
		ns.childReqCount = 0
	}

	e.pool += lost
	e.requeued += lost
	if e.multi {
		for a, k := range lostApp {
			e.pools[a] += k
			e.appRequeued[a] += k
		}
	}
	// The replenished pool and the parent's freed port may enable work.
	e.trySchedule(parent)
	if parent != 0 {
		e.trySchedule(0)
	}
}
