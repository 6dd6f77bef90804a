// Package engine executes an independent-task application on a platform
// tree under an autonomous scheduling protocol: it is the discrete-event
// driver of the per-node protocol core (protocol.Node), on the kernel in
// package sim.
//
// # Model
//
// The engine implements the paper's "base model": every node can
// simultaneously receive one task from its parent, send one task to one of
// its children, and compute one task. The root holds the application's
// task pool. Control traffic (a child's request for a task) is free, as in
// the paper.
//
// Each node's core decides — which child its send port serves, when a
// send is shelved or resumes, when a freed buffer requests and when the
// non-interruptible protocol grows one (G1–G3); see package protocol. The
// engine turns those decisions into timed events: a send completes c_i
// timesteps after it starts (a shelved one keeps its remaining time), a
// computation w_i after. It adds what a simulation needs around the core:
// mutations, attachments and departures, and tracing.
//
// # Determinism
//
// Runs are fully deterministic: simultaneous events fire in scheduling
// order, child scans break ties by node ID, and the only randomness (the
// Random baseline order) is seeded. Identical Configs produce identical
// Results.
package engine

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"bwcs/internal/protocol"
	"bwcs/internal/sim"
	"bwcs/internal/trace"
	"bwcs/internal/tree"
)

// Event kinds used with the sim kernel.
const (
	evSendComplete sim.Kind = iota + 1
	evComputeComplete
)

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
	Tasks    int64 // number of application tasks at the root

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

	// Tracer, when non-nil, receives every scheduling action as the core
	// decides it, before its consequences (the requests a freed buffer
	// issues, and any decision they cause upstream); package trace records,
	// renders and replays the stream. Leave nil for sweeps.
	Tracer func(trace.Event)
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
	// Metrics is the run's engine-wide instrumentation snapshot.
	Metrics Metrics
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

// nodeState is the runtime state of one platform node: its protocol core
// and what the discrete-event driver adds to it.
type nodeState struct {
	// core is the node's protocol: buffers, ports and one slot per child,
	// the children in tree order under FCFS, RoundRobin and Random and in
	// priority order — ascending c (BandwidthCentric) or w
	// (ComputeCentric), ties by ID — under the two orders whose key is
	// static. sortChildren restores that order wherever a key or the list
	// changes: initNodes and Mutations.
	core protocol.Node

	// w, c and parent mirror the tree (Mutations update both), so the
	// event path never calls into package tree. slot is this node's
	// position in its parent's core.Slots; -1 once it has departed.
	w, c   int64
	parent int32
	slot   int32

	sendEv    *sim.Event // the send in flight, for preemption and departure
	computeEv *sim.Event // pending compute completion, for cancellation

	// shelf is the remaining send time of a transfer toward this node
	// shelved at its parent (a child has at most one transfer in flight or
	// shelved); the core keeps the rest.
	shelf sim.Time

	departed bool

	stat NodeStat
}

type engine struct {
	cfg   Config
	t     *tree.Tree
	s     *sim.Simulator
	nodes []nodeState
	rng   *rand.Rand

	trace func(trace.Event)
	met   Metrics

	requeued   int64
	skippedMut int
	completed  int64

	// statsBuf backs Result.Nodes and completions Result.Completions,
	// both reused across a Runner's runs.
	statsBuf    []NodeStat
	completions []sim.Time

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
// error if the configuration is invalid or the simulation deadlocks
// before all tasks complete (which would indicate an engine bug; the test
// suite exercises this path with fault injection).
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
		checkpoints: e.checkpoints[:0],
		statsBuf:    e.statsBuf,
		completions: e.completions[:0],
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
		e.rng = protocol.Rand(cfg.Seed)
	}
	if cap(e.completions) < int(cfg.Tasks) {
		e.completions = make([]sim.Time, 0, cfg.Tasks)
	}

	e.initNodes(0)
	e.nodes[0].core.Refill(cfg.Tasks) // undispatched tasks at the root: its core's buffers

	// All nodes issue their initial requests (one per empty buffer) before
	// anyone acts, so t=0 scheduling sees the complete picture rather than
	// an artifact of initialization order.
	for id := 1; id < len(e.nodes); id++ {
		e.requestInitial(int32(id))
	}
	for id := range e.nodes {
		e.trySchedule(int32(id))
	}

	e.s.Run(0)
	if e.completed != cfg.Tasks {
		return nil, fmt.Errorf("engine: deadlock: simulation drained with %d/%d tasks complete", e.completed, cfg.Tasks)
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
	for i := range e.nodes {
		core := &e.nodes[i].core
		res.Nodes[i] = e.nodes[i].stat
		res.Nodes[i].Buffers = core.Capacity
		res.Nodes[i].MaxCapacity = core.MaxCapacity
		res.Nodes[i].MaxQueued = core.MaxOccupied
		res.Nodes[i].MaxShelved = core.MaxShelved
		res.Nodes[i].Departed = e.nodes[i].departed
		e.met.PeakShelved = max(e.met.PeakShelved, core.MaxShelved)
		e.met.PeakOccupied = max(e.met.PeakOccupied, core.MaxOccupied)
	}
	e.met.Events = e.s.Steps()
	e.met.PeakPending = e.s.PeakPending()
	e.met.FreeListHits = e.s.FreeListHits()
	e.met.EventAllocs = e.s.Allocs()
	e.met.EventsCancels = e.s.Cancelled()
	res.Metrics = e.met
	return res, nil
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
		ns := &e.nodes[id]
		// Recycle the element's slot storage across runs (a Runner keeps
		// the nodes table; fresh elements start nil).
		slots := ns.core.Slots
		*ns = nodeState{
			w:      e.t.W(tree.NodeID(id)),
			c:      e.t.C(tree.NodeID(id)),
			parent: int32(e.t.Parent(tree.NodeID(id))),
			slot:   -1,
		}
		ns.core.Slots = slots
		ns.core.Reset(e.cfg.Protocol, id == 0)
		for _, k := range e.t.Children(tree.NodeID(id)) {
			ns.core.Slots = append(ns.core.Slots, protocol.Slot{Child: int32(k), Key: protocol.Key(e.cfg.Protocol.Order, e.t.C(k), e.t.W(k))})
		}
	}
	// Parents of newly attached nodes gain children; re-list them for all
	// pre-existing nodes too (cheap relative to a run), keeping each listed
	// child's slot. A child that departed is listed again, down.
	for id := 0; id < from; id++ {
		kids := e.t.Children(tree.NodeID(id))
		core := &e.nodes[id].core
		if len(kids) == len(core.Slots) {
			continue
		}
		slots := make([]protocol.Slot, len(kids))
		for i, k := range kids {
			ks := &e.nodes[k]
			if ks.slot >= 0 { // listed here before; new and departed children have no slot
				slots[i] = core.Slots[ks.slot]
			} else {
				slots[i] = protocol.Slot{Child: int32(k), Key: protocol.Key(e.cfg.Protocol.Order, e.t.C(k), e.t.W(k)), Down: ks.departed}
			}
		}
		core.Relist(slots)
		e.sortChildren(int32(id))
	}
	// Once every new node is in the table.
	for id := from; id < n; id++ {
		e.sortChildren(int32(id))
	}
}

// sortChildren puts node n's slots in priority order (protocol.Node.Sort)
// and tells each child where its slot is.
func (e *engine) sortChildren(n int32) {
	core := &e.nodes[n].core
	core.Sort()
	for i := range core.Slots {
		e.nodes[core.Slots[i].Child].slot = int32(i)
	}
}

// Handle dispatches simulator events.
func (e *engine) Handle(ev *sim.Event) {
	switch ev.Kind {
	case evSendComplete:
		e.onSendComplete(ev.Node, ev.Child)
	case evComputeComplete:
		e.onComputeComplete(ev.Node)
	default:
		panic(fmt.Sprintf("engine: unknown event kind %d", ev.Kind))
	}
}

// took carries out the driver's side of node n taking a task its core
// released for the compute port or a send: the freed buffer's request,
// retirement or G1 growth.
func (e *engine) took(n int32, t protocol.Take) {
	if t.Retired {
		e.nodes[n].stat.Decayed++
		e.met.Decays++
	} else if t.Request {
		e.request(n)
	}
	if t.Grew {
		e.grew(n)
	}
}

// request sends one task request from node n to its parent. Requests are
// control traffic and arrive instantly, per the paper's model.
func (e *engine) request(n int32) {
	ns := &e.nodes[n]
	ns.stat.Requests++
	e.met.Requests++
	e.emit(trace.Event{Kind: trace.Request, Node: tree.NodeID(n), Peer: -1})
	e.nodes[ns.parent].core.Request(int(ns.slot), 1, int64(e.s.Now()))
	e.trySchedule(ns.parent)
}

// requestInitial issues node n's startup requests, one per empty buffer,
// without triggering parent scheduling (the caller schedules everyone once
// all requests are placed).
func (e *engine) requestInitial(n int32) {
	ns := &e.nodes[n]
	k := ns.core.Initial()
	ns.stat.Requests += k
	e.nodes[ns.parent].core.Request(int(ns.slot), k, 0)
}

// grew reports a buffer node n's core just grew and requests a task to
// fill it.
func (e *engine) grew(n int32) {
	e.met.Grows++
	e.emit(trace.Event{Kind: trace.Grow, Node: tree.NodeID(n), Peer: -1, Value: e.nodes[n].core.Capacity})
	e.request(n)
}

// onSendComplete delivers a task from parent p to child c.
func (e *engine) onSendComplete(p, c int32) {
	ps := &e.nodes[p]
	cs := &e.nodes[c]
	if i := ps.core.Sending(); i < 0 || ps.core.Slots[i].Child != c {
		panic("engine: send completion for wrong child")
	}
	ps.sendEv = nil
	grew := ps.core.SendDone()
	cs.core.Arrived()
	cs.stat.Received++
	e.met.SendsCompleted++
	e.emit(trace.Event{Kind: trace.SendDone, Node: tree.NodeID(p), Peer: tree.NodeID(c)})
	if grew { // G2
		e.grew(p)
	}

	// The child first (it may consume the task and re-request), then the
	// parent's freed port.
	e.trySchedule(c)
	e.trySchedule(p)
}

// onComputeComplete finishes a task at node n.
func (e *engine) onComputeComplete(n int32) {
	ns := &e.nodes[n]
	if !ns.core.Computing {
		panic("engine: compute completion while idle")
	}
	ns.core.ComputeDone()
	ns.computeEv = nil
	ns.stat.Computed++
	e.met.ComputesDone++
	e.completed++
	e.completions = append(e.completions, e.s.Now())
	e.emit(trace.Event{Kind: trace.ComputeDone, Node: tree.NodeID(n), Peer: -1, Value: e.completed})
	e.atCompletion()
	// Attachments inside atCompletion may reallocate the node table.
	if e.nodes[n].core.G3() {
		e.grew(n)
	}
	e.trySchedule(n)
}

// atCompletion fires checkpoints, mutations and attachments tied to the
// global completed-task count.
func (e *engine) atCompletion() {
	for e.ckIdx < len(e.cfg.Checkpoints) && e.completed >= e.cfg.Checkpoints[e.ckIdx] {
		snap := CheckpointStat{AfterTasks: e.cfg.Checkpoints[e.ckIdx], Time: e.s.Now()}
		for i := range e.nodes {
			core := &e.nodes[i].core
			snap.MaxNodeBuffers = max(snap.MaxNodeBuffers, core.Capacity)
			snap.TotalBuffers += core.Capacity
			snap.MaxNodeUsed = max(snap.MaxNodeUsed, core.MaxOccupied)
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
				e.nodes[ns.parent].core.Slots[ns.slot].Key = protocol.Key(e.cfg.Protocol.Order, e.t.C(m.Node), e.t.W(m.Node))
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

// trySchedule lets node n start any action its core decides: computing a
// buffered task, starting or resuming a send, or (interruptible protocol)
// preempting its current send for higher-priority work.
func (e *engine) trySchedule(n int32) {
	ns := &e.nodes[n]
	if ns.departed {
		return
	}

	// CPU: the node itself is the highest-priority consumer (its
	// "communication time" is zero).
	if t, ok := ns.core.Compute(); ok {
		e.emit(trace.Event{Kind: trace.ComputeStart, Node: tree.NodeID(n), Peer: -1, Value: int64(e.s.Now()) + ns.w})
		e.took(n, t)
		e.met.ComputesStarted++
		ns.computeEv = e.s.Schedule(sim.Time(ns.w), evComputeComplete, n, 0)
	}

	// Send port.
	d := ns.core.DecideSend(int64(e.s.Now()), e.rng)
	if d.Slot < 0 {
		return
	}
	if d.Shelved >= 0 {
		// Preempted: the in-flight transfer is shelved with its remaining
		// time.
		remaining := e.s.Cancel(ns.sendEv)
		cur := ns.core.Slots[d.Shelved].Child
		e.nodes[cur].shelf = remaining
		ns.stat.Interrupted++
		e.met.SendsInterrupted++
		e.emit(trace.Event{Kind: trace.SendInterrupt, Node: tree.NodeID(n), Peer: tree.NodeID(cur), Value: int64(remaining)})
		ns.sendEv = nil
	}
	c := ns.core.Slots[d.Slot].Child
	cs := &e.nodes[c]
	var delay sim.Time
	if d.Resume {
		delay = cs.shelf
		e.emit(trace.Event{Kind: trace.SendResume, Node: tree.NodeID(n), Peer: tree.NodeID(c), Value: int64(e.s.Now() + delay)})
		e.met.SendsResumed++
	} else {
		delay = sim.Time(cs.c)
		e.emit(trace.Event{Kind: trace.SendStart, Node: tree.NodeID(n), Peer: tree.NodeID(c), Value: int64(e.s.Now() + delay)})
		e.took(n, d.Take)
		ns.stat.Forwarded++
		e.met.SendsStarted++
	}
	ns.sendEv = e.s.Schedule(delay, evSendComplete, n, c)
}

// emit stamps ev and hands it to Config.Tracer; it inlines to a nil check.
func (e *engine) emit(ev trace.Event) {
	if e.trace != nil {
		ev.At = e.s.Now()
		e.trace(ev)
	}
}

// depart removes the subtree rooted at node from the running platform.
// Every task the subtree held — buffered, computing, in flight within it,
// or in flight/shelved toward it from its parent — returns to the root's
// pool for re-dispatch. The departed nodes' statistics freeze; their IDs
// stay valid in the Result.
func (e *engine) depart(node tree.NodeID) {
	ds := &e.nodes[node]
	if ds.departed {
		return // departing an already-gone subtree is a no-op
	}
	parent := ds.parent
	ps := &e.nodes[parent]
	if ps.departed {
		// The whole branch is already gone.
		return
	}

	var held int64

	// Parent side first: cancel the transfer in flight toward the
	// departing root, drop its outstanding requests and its slot.
	sending, shelved := ps.core.Remove(int(ds.slot))
	ds.slot = -1
	e.sortChildren(parent)
	if sending {
		e.s.Cancel(ps.sendEv)
		held++
		ps.sendEv = nil
	}
	if shelved {
		held++
	}

	// Subtree side: cancel all work in progress and reclaim held tasks,
	// the transfers shelved toward the subtree's own children included.
	for _, sid := range e.t.Subtree(node) {
		ns := &e.nodes[sid]
		ns.departed = true
		ns.stat.Departed = true
		held += ns.core.Occupied
		if ns.core.Computing {
			e.s.Cancel(ns.computeEv)
			held++
			ns.computeEv = nil
		}
		if ns.core.Sending() >= 0 {
			e.s.Cancel(ns.sendEv)
			held++
			ns.sendEv = nil
		}
		for _, sl := range ns.core.Slots {
			if sl.Shelved {
				held++
			}
		}
		ns.core.Depart()
	}
	e.requeued += held
	e.nodes[0].core.Refill(held)

	// The replenished pool and the parent's freed port may enable work.
	e.trySchedule(parent)
	if parent != 0 {
		e.trySchedule(0)
	}
}
