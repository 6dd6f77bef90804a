package engine

// Tests for mid-run platform dynamics: departures (resources leaving with
// task requeue) and buffer decay.

import (
	"testing"

	"bwcs/internal/protocol"
	"bwcs/internal/tree"
)

func TestDepartureRequeuesAndCompletes(t *testing.T) {
	// A productive subtree departs halfway; every one of its in-progress
	// tasks must be requeued and the application must still finish.
	tr := tree.New(50)
	a := tr.AddChild(tr.Root(), 4, 1) // fast subtree that will depart
	tr.AddChild(a, 4, 1)
	tr.AddChild(tr.Root(), 8, 2) // survives
	res := mustRun(t, Config{
		Tree:       tr,
		Protocol:   protocol.Interruptible(2),
		Tasks:      500,
		Departures: []DepartMutation{{AfterTasks: 200, Node: a}},
	})
	var computed int64
	for _, ns := range res.Nodes {
		computed += ns.Computed
	}
	if computed != 500 {
		t.Fatalf("computed %d of 500 after departure", computed)
	}
	if res.Requeued == 0 {
		t.Fatalf("busy subtree departed with zero requeued tasks")
	}
	if !res.Nodes[a].Departed || !res.Nodes[2].Departed {
		t.Fatalf("departure flags not set: %+v", res.Nodes)
	}
	if res.Nodes[3].Departed || res.Nodes[0].Departed {
		t.Fatalf("survivors flagged departed")
	}
	// The departed subtree computed tasks before leaving, none after: its
	// totals must be below what a full run would give it.
	full := mustRun(t, Config{Tree: tr, Protocol: protocol.Interruptible(2), Tasks: 500})
	if res.Nodes[a].Computed >= full.Nodes[a].Computed {
		t.Fatalf("departed node computed as much as in a full run")
	}
	// And the run must be slower than the intact platform's.
	if res.Makespan <= full.Makespan {
		t.Fatalf("losing workers did not slow the run: %d <= %d", res.Makespan, full.Makespan)
	}
}

func TestDepartureOfOnlyWorker(t *testing.T) {
	// The root must finish everything alone after its only child leaves.
	tr := tree.New(5)
	c := tr.AddChild(tr.Root(), 1, 1)
	res := mustRun(t, Config{
		Tree:       tr,
		Protocol:   protocol.Interruptible(3),
		Tasks:      300,
		Departures: []DepartMutation{{AfterTasks: 50, Node: c}},
	})
	if res.Nodes[0].Computed+res.Nodes[c].Computed != 300 {
		t.Fatalf("tasks lost: %+v", res.Nodes)
	}
	if res.Nodes[c].Computed >= 300 {
		t.Fatalf("departed child computed everything")
	}
}

func TestDepartureDuringWindDown(t *testing.T) {
	// Departure near the end, when the pool is drained: requeued tasks
	// must re-enter the pool and still complete.
	tr := tree.New(100)
	c := tr.AddChild(tr.Root(), 3, 1)
	res := mustRun(t, Config{
		Tree:       tr,
		Protocol:   protocol.Interruptible(3),
		Tasks:      100,
		Departures: []DepartMutation{{AfterTasks: 95, Node: c}},
	})
	if got := len(res.Completions); got != 100 {
		t.Fatalf("completions = %d", got)
	}
}

func TestDepartureValidation(t *testing.T) {
	tr := tree.New(5)
	tr.AddChild(tr.Root(), 5, 1)
	if _, err := Run(Config{
		Tree: tr, Protocol: protocol.Interruptible(1), Tasks: 10,
		Departures: []DepartMutation{{AfterTasks: 5, Node: 0}},
	}); err == nil {
		t.Fatalf("root departure accepted")
	}
	// Unknown IDs pass validation (they may be created by a later
	// attachment) but are skipped and counted when they fire.
	res, err := Run(Config{
		Tree: tr, Protocol: protocol.Interruptible(1), Tasks: 10,
		Departures: []DepartMutation{{AfterTasks: 5, Node: 99}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SkippedMutations != 1 {
		t.Fatalf("SkippedMutations = %d, want 1", res.SkippedMutations)
	}
}

func TestMutationAfterDepartureIsSkipped(t *testing.T) {
	tr := tree.New(10)
	c := tr.AddChild(tr.Root(), 5, 1)
	res := mustRun(t, Config{
		Tree:       tr,
		Protocol:   protocol.Interruptible(2),
		Tasks:      200,
		Departures: []DepartMutation{{AfterTasks: 50, Node: c}},
		Mutations:  []Mutation{{AfterTasks: 100, Node: c, W: 1}},
	})
	if res.SkippedMutations != 1 {
		t.Fatalf("SkippedMutations = %d, want 1", res.SkippedMutations)
	}
	if res.Tree.W(c) != 5 {
		t.Fatalf("mutation applied to departed node")
	}
}

func TestAttachToDepartedParentIsSkipped(t *testing.T) {
	tr := tree.New(10)
	c := tr.AddChild(tr.Root(), 5, 1)
	sub := tree.New(3)
	res := mustRun(t, Config{
		Tree:        tr,
		Protocol:    protocol.Interruptible(2),
		Tasks:       200,
		Departures:  []DepartMutation{{AfterTasks: 50, Node: c}},
		Attachments: []AttachMutation{{AfterTasks: 100, Parent: c, Subtree: sub, C: 1}},
	})
	if res.SkippedMutations != 1 {
		t.Fatalf("SkippedMutations = %d, want 1", res.SkippedMutations)
	}
	if res.Tree.Len() != 2 {
		t.Fatalf("subtree attached under departed parent")
	}
}

func TestNestedDepartureIsNoOp(t *testing.T) {
	// Departing a node inside an already-departed subtree changes nothing.
	tr := tree.New(10)
	a := tr.AddChild(tr.Root(), 5, 1)
	b := tr.AddChild(a, 5, 1)
	res := mustRun(t, Config{
		Tree:     tr,
		Protocol: protocol.Interruptible(2),
		Tasks:    200,
		Departures: []DepartMutation{
			{AfterTasks: 50, Node: a},
			{AfterTasks: 60, Node: b},
		},
	})
	var computed int64
	for _, ns := range res.Nodes {
		computed += ns.Computed
	}
	if computed != 200 {
		t.Fatalf("computed %d of 200", computed)
	}
}

func TestChurnAttachThenDepart(t *testing.T) {
	// A subtree joins, works, then leaves; the run still completes and
	// the joiners computed something while present.
	tr := tree.New(20)
	sub := tree.New(2)
	sub.AddChild(sub.Root(), 2, 1)
	res := mustRun(t, Config{
		Tree:        tr,
		Protocol:    protocol.Interruptible(2),
		Tasks:       600,
		Attachments: []AttachMutation{{AfterTasks: 100, Parent: 0, Subtree: sub, C: 1}},
		Departures:  []DepartMutation{{AfterTasks: 400, Node: 1}},
	})
	var computed int64
	for _, ns := range res.Nodes {
		computed += ns.Computed
	}
	if computed != 600 {
		t.Fatalf("computed %d of 600", computed)
	}
	if res.Nodes[1].Computed == 0 || res.Nodes[2].Computed == 0 {
		t.Fatalf("joiners never worked: %+v", res.Nodes)
	}
	if !res.Nodes[1].Departed || !res.Nodes[2].Departed {
		t.Fatalf("joiners not flagged departed")
	}
}

func TestDecayRetiresOverGrownBuffers(t *testing.T) {
	// Figure 2(b)-style platform forces B to grow buffers to ride out the
	// long sends to its slow sibling C. When C departs, B's supply
	// becomes continuous and its grown buffers over-provisioned: decay
	// must retire some. (While C is present the grown buffers are all
	// needed, and a variant of this test asserts decay leaves them alone
	// — see TestDecayKeepsNeededBuffers.)
	const x, k = 4, 5
	build := func() *tree.Tree {
		tr := tree.New(100000)
		tr.AddChild(tr.Root(), x, 1)
		tr.AddChild(tr.Root(), k*x+1, k*x+1)
		return tr
	}
	departC := []DepartMutation{{AfterTasks: 1000, Node: 2}}
	plain := mustRun(t, Config{Tree: build(), Protocol: protocol.NonInterruptible(1), Tasks: 2000, Departures: departC})
	decayed := mustRun(t, Config{Tree: build(), Protocol: protocol.NonInterruptible(1).WithDecay(), Tasks: 2000, Departures: departC})
	var retired int64
	for _, ns := range decayed.Nodes {
		retired += ns.Decayed
	}
	if retired == 0 {
		t.Fatalf("decay never retired a buffer")
	}
	if decayed.TotalBuffers() >= plain.TotalBuffers() {
		t.Fatalf("decay did not reduce buffer usage: %d >= %d", decayed.TotalBuffers(), plain.TotalBuffers())
	}
	// Decay must not break the application.
	var computed int64
	for _, ns := range decayed.Nodes {
		computed += ns.Computed
	}
	if computed != 2000 {
		t.Fatalf("computed %d of 2000 with decay", computed)
	}
}

func TestDecayNeverBelowInitialBuffers(t *testing.T) {
	tr := tree.New(50)
	tr.AddChild(tr.Root(), 4, 1)
	tr.AddChild(tr.Root(), 9, 3)
	res := mustRun(t, Config{Tree: tr, Protocol: protocol.NonInterruptible(2).WithDecay(), Tasks: 800})
	for i, ns := range res.Nodes {
		if ns.Buffers < 2 {
			t.Fatalf("node %d decayed below initial buffers: %d", i, ns.Buffers)
		}
	}
}

func TestDecayValidation(t *testing.T) {
	if err := (protocol.Protocol{InitialBuffers: 1, Decay: true}).Validate(); err == nil {
		t.Fatalf("decay without growth accepted")
	}
	if err := protocol.NonInterruptible(1).WithDecay().Validate(); err != nil {
		t.Fatalf("decay with growth rejected: %v", err)
	}
}

func TestExtremeWeightsDoNotOverflow(t *testing.T) {
	// Weights near 1e15 with thousands of tasks stay far below int64
	// overflow; completions must remain sane and monotone.
	tr := tree.New(1_000_000_000_000_000)
	tr.AddChild(tr.Root(), 999_999_999_999_999, 888_888_888_888)
	res := mustRun(t, Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 5})
	if res.Makespan <= 0 {
		t.Fatalf("makespan overflowed: %d", res.Makespan)
	}
	for i := 1; i < len(res.Completions); i++ {
		if res.Completions[i] < res.Completions[i-1] {
			t.Fatalf("completions not monotone under extreme weights")
		}
	}
}

func TestDeepChainPlatform(t *testing.T) {
	// A 400-deep chain exercises the recursive request path without
	// blowing the stack and still completes and reaches its optimum shape.
	tr := tree.New(1000)
	cur := tr.Root()
	for i := 0; i < 400; i++ {
		cur = tr.AddChild(cur, 1000, 1)
	}
	res := mustRun(t, Config{Tree: tr, Protocol: protocol.Interruptible(2), Tasks: 2000})
	var computed int64
	deepest := 0
	for i, ns := range res.Nodes {
		computed += ns.Computed
		if ns.Computed > 0 && tr.Depth(tree.NodeID(i)) > deepest {
			deepest = tr.Depth(tree.NodeID(i))
		}
	}
	if computed != 2000 {
		t.Fatalf("computed %d of 2000", computed)
	}
	if deepest < 100 {
		t.Fatalf("work only reached depth %d of a 400-chain", deepest)
	}
}

func TestWideStarPlatform(t *testing.T) {
	// 500 children on one node exercises the O(children) scheduling scans.
	// Compute is slow relative to the links (c/w ≈ 1/100), so the port can
	// keep dozens of children fed rather than saturating on one.
	tr := tree.New(997)
	for i := 0; i < 500; i++ {
		tr.AddChild(tr.Root(), int64(200+i%40), int64(i%5+1))
	}
	res := mustRun(t, Config{Tree: tr, Protocol: protocol.Interruptible(2), Tasks: 3000})
	var computed int64
	for _, ns := range res.Nodes {
		computed += ns.Computed
	}
	if computed != 3000 {
		t.Fatalf("computed %d of 3000", computed)
	}
	if res.UsedCount() < 20 {
		t.Fatalf("only %d children used on a wide star", res.UsedCount())
	}
}
