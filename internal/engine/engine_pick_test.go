package engine

// The send-port decision against its reference: the linear scan over
// shelves and children that bestCandidate was before the child lists were
// kept in priority order, run beside the engine on every state a run
// passes through; and whole Results against digests taken at the commit
// that still had that scan.

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

// pickProtocols is every order under the non-interruptible protocol and
// every order interruption accepts (it needs a priority) under IC FB=1..3.
func pickProtocols() []protocol.Protocol {
	var out []protocol.Protocol
	for _, o := range []protocol.Order{protocol.BandwidthCentric, protocol.ComputeCentric, protocol.FCFS, protocol.RoundRobin, protocol.Random} {
		out = append(out, protocol.NonInterruptible(1).WithOrder(o))
		if !o.HasPriority() {
			continue
		}
		for fb := 1; fb <= 3; fb++ {
			out = append(out, protocol.Interruptible(fb).WithOrder(o))
		}
	}
	return out
}

// fig1Tree is the paper's Figure 1 platform (experiments.ExampleTree,
// which this package cannot import).
func fig1Tree() *tree.Tree {
	t := tree.New(5)
	t.AddChild(0, 3, 1)
	p2 := t.AddChild(0, 5, 2)
	t.AddChild(p2, 4, 4)
	t.AddChild(p2, 6, 6)
	p5 := t.AddChild(0, 6, 5)
	t.AddChild(p5, 1, 1)
	t.AddChild(p5, 4, 4)
	return t
}

// pickConfigs is the dynamic workload of the differential: Figure 7's two
// mutations on the Figure 1 tree (c1 1→3, then w1 3→1), and on seeded
// random trees a tripled c and a thirded w on node 1, a subtree attached
// mid-run, and two departures — one of an original subtree, one of the
// attached one — all while tasks are still flowing.
func pickConfigs(p protocol.Protocol) []Config {
	cfgs := []Config{{
		Tree: fig1Tree(), Protocol: p, Tasks: 800, Seed: 7,
		Mutations: []Mutation{{AfterTasks: 200, Node: 1, C: 3}, {AfterTasks: 400, Node: 1, W: 1}},
	}}
	params := randtree.Params{MinNodes: 6, MaxNodes: 60, MinComm: 1, MaxComm: 30, Comp: 400}
	for i := 0; i < 8; i++ {
		tr := randtree.TreeAt(params, 4242, i)
		sub := tree.New(int64(3 + i))
		sub.AddChild(sub.Root(), 2, int64(1+i))
		sub.AddChild(sub.Root(), int64(10-i), 2)
		n := tree.NodeID(tr.Len())
		cfgs = append(cfgs, Config{
			Tree: tr, Protocol: p, Tasks: 1200, Seed: uint64(100 + i),
			Mutations: []Mutation{
				{AfterTasks: 150, Node: 1, C: 3 * tr.C(1)},
				{AfterTasks: 450, Node: 1, W: max(1, tr.W(1)/3)},
			},
			Attachments: []AttachMutation{{AfterTasks: 300, Parent: tree.NodeID(i % tr.Len()), Subtree: sub, C: int64(2 + i)}},
			Departures: []DepartMutation{
				{AfterTasks: 600, Node: tree.NodeID(1 + i%(tr.Len()-1))},
				{AfterTasks: 900, Node: n},
			},
		})
	}
	return cfgs
}

// resultDigest folds everything a Result reports about scheduling into one
// number: every completion time, every node's statistics, the engine and
// kernel counters.
func resultDigest(res *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintln(h, res.Completions, res.Makespan, res.Steps, res.Requeued, res.SkippedMutations)
	fmt.Fprintf(h, "%+v\n%+v\n", res.Nodes, res.Metrics)
	return h.Sum64()
}

// parentDigests are resultDigest over pickConfigs, folded per protocol,
// as computed at the parent commit (PR 19, the last with the linear scan
// and the heap kernel) by this file's pickConfigs and resultDigest.
var parentDigests = map[string]uint64{
	"non-IC IB=1":                   0xab1e337df6ee7ac0,
	"IC FB=1":                       0x935e0aef4a7433c0,
	"IC FB=2":                       0x4d15ef8913c58552,
	"IC FB=3":                       0xd92e656f19b5a0b6,
	"non-IC IB=1 [compute-centric]": 0xca8a2af3e04924ea,
	"IC FB=1 [compute-centric]":     0x3d41d1f561cce2fa,
	"IC FB=2 [compute-centric]":     0x1b6baf5cb7961bf0,
	"IC FB=3 [compute-centric]":     0xb377dcb9a1f9434f,
	"non-IC IB=1 [fcfs]":            0xf13e516e46ae0bfd,
	"IC FB=1 [fcfs]":                0x5e22f7cd04305ce0,
	"IC FB=2 [fcfs]":                0x669ef76c91248f3e,
	"IC FB=3 [fcfs]":                0xc04e6e9a278695f2,
	"non-IC IB=1 [round-robin]":     0xf63b0cf57b171d3,
	"non-IC IB=1 [random]":          0x632f13db1287c39,
	"churn":                         0x1b46919719381fee,
}

// oracleShelf is a shelved transfer as the linear scan kept it: in a list
// at the sender.
type oracleShelf struct {
	child int32
	since sim.Time
}

// pickOracle is a Tracer that, at every action of a run, compares the
// engine's send-port decision with the linear scan's at every live node.
// It keeps its own shelf lists from the actions it observes, so the scan
// does not lean on the per-child flags under test, and reads weights from
// the tree, not from the engine's mirror of them.
type pickOracle struct {
	t       *testing.T
	e       *engine
	shelves map[int32][]oracleShelf
	checks  int
	// Departures that found a transfer toward the departing node on its
	// parent's shelf, and shelved transfers held inside departing subtrees.
	shelvedAtParent, shelvedAtSender int
}

func (o *pickOracle) ComputeStart(sim.Time, tree.NodeID, sim.Time) { o.check() }
func (o *pickOracle) SendDone(sim.Time, tree.NodeID, tree.NodeID)  { o.check() }
func (o *pickOracle) Grew(sim.Time, tree.NodeID, int64)            { o.check() }

// Requested fires between the two halves of the request's bookkeeping
// (reqPending, then the parent's childReqCount): no check here.
func (o *pickOracle) Requested(sim.Time, tree.NodeID) {}

func (o *pickOracle) ComputeDone(_ sim.Time, _ tree.NodeID, completed int64) {
	o.check()
	// The departures this completion triggers run next.
	for _, d := range o.e.cfg.Departures[o.e.depIdx:] {
		if completed < d.AfterTasks || int(d.Node) >= len(o.e.nodes) || o.e.nodes[d.Node].departed {
			continue
		}
		for _, sh := range o.shelves[o.e.nodes[d.Node].parent] {
			if sh.child == int32(d.Node) {
				o.shelvedAtParent++
			}
		}
		for _, sid := range o.e.t.Subtree(d.Node) {
			o.shelvedAtSender += len(o.liveShelves(int32(sid)))
		}
	}
}

func (o *pickOracle) SendStart(_ sim.Time, parent, child tree.NodeID, _ sim.Time, fromShelf bool) {
	if fromShelf {
		list := o.shelves[int32(parent)]
		for i := range list {
			if list[i].child == int32(child) {
				o.shelves[int32(parent)] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	o.check()
}

func (o *pickOracle) SendInterrupted(_ sim.Time, parent, child tree.NodeID, _ sim.Time) {
	p := int32(parent)
	o.shelves[p] = append(o.shelves[p], oracleShelf{int32(child), o.e.nodes[p].sendSince})
	o.check()
}

// liveShelves is node n's shelf list less the transfers toward children
// that have since departed, which depart used to delete from the list.
func (o *pickOracle) liveShelves(n int32) []oracleShelf {
	var out []oracleShelf
	for _, sh := range o.shelves[n] {
		if !o.e.nodes[sh.child].departed {
			out = append(out, sh)
		}
	}
	return out
}

// scan is the parent commit's bestCandidate, with its roundRobinCandidate,
// randomCandidate, hasShelf and priorityKey.
func (o *pickOracle) scan(n int32) (child int32, isShelf bool) {
	e := o.e
	ns := &e.nodes[n]
	shelves := o.liveShelves(n)
	canFresh := e.hasTask(n)
	hasShelf := func(c int32) bool {
		for _, sh := range shelves {
			if sh.child == c {
				return true
			}
		}
		return false
	}
	fresh := func(c int32) bool {
		cs := &e.nodes[c]
		return canFresh && cs.reqPending > 0 && !cs.incoming
	}

	switch e.cfg.Protocol.Order {
	case protocol.RoundRobin:
		k := len(ns.children)
		for i := 0; i < k; i++ {
			c := ns.children[(ns.rrNext+i)%k]
			if hasShelf(c) || fresh(c) {
				ns.rrNext = (ns.rrNext + i + 1) % k
				return c, hasShelf(c)
			}
		}
		return -1, false
	case protocol.Random:
		var pick int32 = -1
		pickShelf := false
		count := 0
		for _, c := range ns.children {
			if !hasShelf(c) && !fresh(c) {
				continue
			}
			count++
			if e.rng.IntN(count) == 0 {
				pick, pickShelf = c, hasShelf(c)
			}
		}
		return pick, pickShelf
	}

	child = -1
	var bestKey int64
	consider := func(c int32, shelfCand bool, since sim.Time) {
		var key int64
		switch e.cfg.Protocol.Order {
		case protocol.BandwidthCentric:
			key = e.t.C(tree.NodeID(c))
		case protocol.ComputeCentric:
			key = e.t.W(tree.NodeID(c))
		case protocol.FCFS:
			key = int64(since)
		}
		if child < 0 || key < bestKey || (key == bestKey && c < child) {
			child, isShelf, bestKey = c, shelfCand, key
		}
	}
	for _, sh := range shelves {
		consider(sh.child, true, sh.since)
	}
	if canFresh {
		for _, c := range ns.children {
			if fresh(c) {
				consider(c, false, e.nodes[c].reqSince)
			}
		}
	}
	return child, isShelf
}

// check compares the two decisions at every live node, each starting from
// the same round-robin cursor and random stream, which both must leave
// where the other did.
func (o *pickOracle) check() {
	e := o.e
	for id := range e.nodes {
		n := int32(id)
		ns := &e.nodes[n]
		if ns.departed {
			continue
		}
		o.checks++
		cursor := ns.rrNext
		var stream rand.PCG
		if e.src != nil {
			stream = *e.src
		}
		rewind := func() (int, rand.PCG) {
			c, s := ns.rrNext, stream
			ns.rrNext = cursor
			if e.src != nil {
				s, *e.src = *e.src, stream
			}
			return c, s
		}
		gotChild, gotShelf := e.bestCandidate(n)
		gotCursor, gotStream := rewind()
		wantChild, wantShelf := o.scan(n)
		wantCursor, wantStream := rewind()
		if gotChild != wantChild || gotShelf != wantShelf || gotCursor != wantCursor || gotStream != wantStream {
			o.t.Fatalf("t=%d node %d under %v: pick (%d, shelf %v, cursor %d), linear scan (%d, shelf %v, cursor %d); same random draws: %v",
				e.s.Now(), n, e.cfg.Protocol, gotChild, gotShelf, gotCursor, wantChild, wantShelf, wantCursor, gotStream == wantStream)
		}
	}
}

// runWithOracle runs cfg on a fresh engine with the oracle attached.
func runWithOracle(t *testing.T, cfg Config) (*Result, *pickOracle) {
	t.Helper()
	r := NewRunner()
	o := &pickOracle{t: t, e: &r.e, shelves: map[int32][]oracleShelf{}}
	cfg.Tracer = o
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("Run under %v: %v", cfg.Protocol, err)
	}
	return res, o
}

// TestPickMatchesLinearScan: under every order, with and without
// interruption, through mutations, an attachment and departures, the
// engine picks what the linear scan picks at every node and every step,
// and the runs end in the Results the parent commit computed.
func TestPickMatchesLinearScan(t *testing.T) {
	for _, p := range pickProtocols() {
		t.Run(p.Label, func(t *testing.T) {
			var digests []uint64
			var interrupts, requeued int64
			for _, cfg := range pickConfigs(p) {
				res, o := runWithOracle(t, cfg)
				if o.checks < int(cfg.Tasks) {
					t.Fatalf("oracle compared %d decisions over %d tasks", o.checks, cfg.Tasks)
				}
				interrupts += res.Metrics.SendsInterrupted
				requeued += res.Requeued
				digests = append(digests, resultDigest(res))
			}
			if p.Interruptible && interrupts == 0 {
				t.Fatalf("no send was ever interrupted")
			}
			if requeued == 0 {
				t.Fatalf("no departure ever requeued a task")
			}
			h := fnv.New64a()
			fmt.Fprint(h, digests)
			if got, want := h.Sum64(), parentDigests[p.Label]; got != want {
				t.Fatalf("Results differ from the parent commit's: digest %#x, want %#x (per config: %#x)", got, want, digests)
			}
		})
	}
}

// churnTree has a forwarding subtree behind a slow link (node 1, c=12)
// whose transfers the root's two fast children keep preempting, and inside
// it a leaf behind a slower link still (node 4, c=40), preempted the same
// way by its fast sibling.
func churnTree() *tree.Tree {
	t := tree.New(6)
	a := t.AddChild(0, 200, 12)
	t.AddChild(0, 9, 2)
	t.AddChild(0, 11, 3)
	t.AddChild(a, 20, 40)
	t.AddChild(a, 60, 1)
	return t
}

// TestDepartureOfShelvedTransfer: under IC FB=1, node 1's subtree departs
// at each of a range of moments; at some of them the root holds a shelved
// transfer toward node 1, at some node 1 itself holds one toward its
// child. Neither may be resumed afterwards (the oracle's shelf lists
// would disagree, and the task would be delivered twice), and every run's
// Result must be the parent commit's.
func TestDepartureOfShelvedTransfer(t *testing.T) {
	var digests []uint64
	var atParent, atSender int
	for k := int64(10); k < 130; k++ {
		res, o := runWithOracle(t, Config{
			Tree: churnTree(), Protocol: protocol.Interruptible(1), Tasks: 300,
			Departures: []DepartMutation{{AfterTasks: k, Node: 1}},
			// Rebuilds the root's child list from the tree, departed node 1
			// included: only its cleared state keeps it from being served.
			Attachments: []AttachMutation{{AfterTasks: k + 20, Parent: 0, Subtree: tree.New(8), C: 4}},
		})
		atParent += o.shelvedAtParent
		atSender += o.shelvedAtSender
		var computed int64
		for _, ns := range res.Nodes {
			computed += ns.Computed
		}
		if computed != 300 {
			t.Fatalf("departure after %d tasks: %d of 300 computed", k, computed)
		}
		digests = append(digests, resultDigest(res))
	}
	if atParent == 0 || atSender == 0 {
		t.Fatalf("departures met %d shelved transfers toward the departing node and %d held by it; need both", atParent, atSender)
	}
	h := fnv.New64a()
	fmt.Fprint(h, digests)
	if got, want := h.Sum64(), parentDigests["churn"]; got != want {
		t.Fatalf("Results differ from the parent commit's: digest %#x, want %#x", got, want)
	}
}
