package engine

// Whole Results against digests taken at the commit that still had the
// linear-scan send-port pick, under every order, through mutations,
// attachments and departures. The decision itself is checked against that
// scan in package protocol (FuzzNodeAgainstScan), where it now lives.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/trace"
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

// shelfWatch is a trace sink that keeps its own lists of shelved
// transfers from the actions it observes, to count the departures that
// meet one.
type shelfWatch struct {
	e       *engine
	shelves map[int32][]int32 // sender → children with a shelved transfer
	// Departures that found a transfer toward the departing node on its
	// parent's shelf, and shelved transfers held inside departing subtrees.
	shelvedAtParent, shelvedAtSender int
}

func (o *shelfWatch) add(ev trace.Event) {
	parent, child := int32(ev.Node), int32(ev.Peer)
	switch ev.Kind {
	case trace.ComputeDone:
		// The departures this completion triggers run next.
		for _, d := range o.e.cfg.Departures[o.e.depIdx:] {
			if ev.Value < d.AfterTasks || int(d.Node) >= len(o.e.nodes) || o.e.nodes[d.Node].departed {
				continue
			}
			for _, c := range o.shelves[o.e.nodes[d.Node].parent] {
				if c == int32(d.Node) {
					o.shelvedAtParent++
				}
			}
			for _, sid := range o.e.t.Subtree(d.Node) {
				for _, c := range o.shelves[int32(sid)] {
					if !o.e.nodes[c].departed {
						o.shelvedAtSender++
					}
				}
			}
		}
	case trace.SendResume:
		list := o.shelves[parent]
		for i := range list {
			if list[i] == child {
				o.shelves[parent] = append(list[:i], list[i+1:]...)
				break
			}
		}
	case trace.SendInterrupt:
		o.shelves[parent] = append(o.shelves[parent], child)
	}
}

// runWatched runs cfg on a fresh engine with a shelfWatch attached.
func runWatched(t *testing.T, cfg Config) (*Result, *shelfWatch) {
	t.Helper()
	r := NewRunner()
	o := &shelfWatch{e: &r.e, shelves: map[int32][]int32{}}
	cfg.Tracer = o.add
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("Run under %v: %v", cfg.Protocol, err)
	}
	return res, o
}

// TestPickMatchesLinearScan: under every order, with and without
// interruption, through mutations, an attachment and departures, the runs
// end in the Results the commit with the linear scan computed.
func TestPickMatchesLinearScan(t *testing.T) {
	for _, p := range pickProtocols() {
		t.Run(p.Label, func(t *testing.T) {
			var digests []uint64
			var interrupts, requeued int64
			for _, cfg := range pickConfigs(p) {
				res, _ := runWatched(t, cfg)
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
// child. Neither may be resumed afterwards (the task would be delivered
// twice), and every run's Result must be the parent commit's.
func TestDepartureOfShelvedTransfer(t *testing.T) {
	var digests []uint64
	var atParent, atSender int
	for k := int64(10); k < 130; k++ {
		res, o := runWatched(t, Config{
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
