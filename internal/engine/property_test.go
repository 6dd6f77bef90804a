package engine

// Property tests: physical invariants that must hold for every protocol on
// every platform. These cross-validate the engine against the model
// itself — ports have capacity 1, tasks are conserved, buffers are
// bounded — rather than against expected outputs.

import (
	"math/rand/v2"
	"testing"

	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/tree"
)

var propertyProtocols = []protocol.Protocol{
	protocol.Interruptible(1),
	protocol.Interruptible(3),
	protocol.NonInterruptible(1),
	protocol.NonInterruptibleFixed(2),
	protocol.NonInterruptible(1).WithDecay(),
	protocol.NonInterruptibleFixed(3).WithOrder(protocol.ComputeCentric),
	protocol.NonInterruptibleFixed(3).WithOrder(protocol.FCFS),
	protocol.NonInterruptibleFixed(3).WithOrder(protocol.RoundRobin),
	protocol.NonInterruptibleFixed(3).WithOrder(protocol.Random),
}

func propertyTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	params := randtree.Params{MinNodes: 2, MaxNodes: 70, MinComm: 1, MaxComm: 60, Comp: 800}
	var out []*tree.Tree
	for i := 0; i < 8; i++ {
		out = append(out, randtree.TreeAt(params, 1234, i))
	}
	// Degenerate shapes.
	single := tree.New(7)
	out = append(out, single)
	chain := tree.New(5)
	cur := chain.Root()
	for i := 0; i < 10; i++ {
		cur = chain.AddChild(cur, 3, 2)
	}
	out = append(out, chain)
	star := tree.New(9)
	for i := 0; i < 12; i++ {
		star.AddChild(star.Root(), int64(i%5+1), int64(i%7+1))
	}
	out = append(out, star)
	return out
}

func TestPropertyConservationAcrossProtocols(t *testing.T) {
	const tasks = 600
	for _, tr := range propertyTrees(t) {
		for _, p := range propertyProtocols {
			res := mustRun(t, Config{Tree: tr, Protocol: p, Tasks: tasks, Seed: 9})
			var computed int64
			for id := 0; id < tr.Len(); id++ {
				ns := &res.Nodes[id]
				computed += ns.Computed
				// Every non-root node's intake equals its output.
				if id != 0 && ns.Received != ns.Computed+ns.Forwarded {
					t.Fatalf("%v node %d: received %d != computed %d + forwarded %d",
						p, id, ns.Received, ns.Computed, ns.Forwarded)
				}
				// A parent's forwards equal its children's receipts.
				var childReceived int64
				for _, k := range tr.Children(tree.NodeID(id)) {
					childReceived += res.Nodes[k].Received
				}
				if ns.Forwarded != childReceived {
					t.Fatalf("%v node %d: forwarded %d != children received %d", p, id, ns.Forwarded, childReceived)
				}
			}
			if computed != tasks {
				t.Fatalf("%v: computed %d of %d", p, computed, tasks)
			}
			// Root intake: pool only.
			if res.Nodes[0].Computed+res.Nodes[0].Forwarded != tasks {
				t.Fatalf("%v: root handled %d tasks, want %d", p, res.Nodes[0].Computed+res.Nodes[0].Forwarded, tasks)
			}
		}
	}
}

func TestPropertyPortCapacities(t *testing.T) {
	// CPU port: a node computing k tasks of weight w must take at least
	// k*w time. Receive port: k deliveries over a link of weight c take at
	// least k*c (interruption never shrinks total transfer time). Send
	// port: Σ_children received(j)*c(j) <= makespan + slack for the final
	// in-flight transfer.
	const tasks = 500
	for _, tr := range propertyTrees(t) {
		for _, p := range []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptible(1)} {
			res := mustRun(t, Config{Tree: tr, Protocol: p, Tasks: tasks, Seed: 3})
			makespan := int64(res.Makespan)
			for id := 0; id < tr.Len(); id++ {
				ns := &res.Nodes[id]
				if ns.Computed*tr.W(tree.NodeID(id)) > makespan {
					t.Fatalf("%v node %d: computed %d tasks of weight %d in %d timesteps",
						p, id, ns.Computed, tr.W(tree.NodeID(id)), makespan)
				}
				if id != 0 && ns.Received*tr.C(tree.NodeID(id)) > makespan {
					t.Fatalf("%v node %d: received %d tasks over link %d in %d timesteps",
						p, id, ns.Received, tr.C(tree.NodeID(id)), makespan)
				}
				var sendTime int64
				for _, k := range tr.Children(tree.NodeID(id)) {
					sendTime += res.Nodes[k].Received * tr.C(k)
				}
				if sendTime > makespan {
					t.Fatalf("%v node %d: send port busy %d of %d timesteps", p, id, sendTime, makespan)
				}
			}
		}
	}
}

func TestPropertyMakespanRespectsOptimalRate(t *testing.T) {
	// No protocol can finish T tasks faster than the optimal steady-state
	// rate allows: makespan >= T * wtree (within one task of slack for
	// boundary effects).
	const tasks = 800
	for _, tr := range propertyTrees(t) {
		opt := optimal.Compute(tr)
		bound := rational.FromInt(tasks - 1).Mul(opt.TreeWeight)
		for _, p := range propertyProtocols {
			res := mustRun(t, Config{Tree: tr, Protocol: p, Tasks: tasks, Seed: 4})
			if rational.FromInt(int64(res.Makespan)).Cmp(bound) < 0 {
				t.Fatalf("%v on %v: makespan %d beats the optimal bound %v",
					p, tr, res.Makespan, bound.Format(2))
			}
		}
	}
}

func TestPropertyBuffersBounded(t *testing.T) {
	const tasks = 500
	for _, tr := range propertyTrees(t) {
		for _, p := range propertyProtocols {
			res := mustRun(t, Config{Tree: tr, Protocol: p, Tasks: tasks, Seed: 5})
			for id := 0; id < tr.Len(); id++ {
				ns := &res.Nodes[id]
				if !p.Grow && ns.Buffers != int64(p.InitialBuffers) {
					t.Fatalf("%v node %d: fixed buffers changed to %d", p, id, ns.Buffers)
				}
				// Queued tasks never exceed the capacity high-water (the
				// root uses the pool, not buffers; final capacity can be
				// lower under decay).
				if id != 0 && ns.MaxQueued > ns.MaxCapacity {
					t.Fatalf("%v node %d: queued %d > capacity high-water %d", p, id, ns.MaxQueued, ns.MaxCapacity)
				}
				// Shelved transfers: at most one per child.
				if ns.MaxShelved > len(tr.Children(tree.NodeID(id))) {
					t.Fatalf("%v node %d: %d shelves for %d children", p, id, ns.MaxShelved, len(tr.Children(tree.NodeID(id))))
				}
				if !p.Interruptible && ns.MaxShelved > 0 {
					t.Fatalf("%v node %d: shelved without interruption", p, id)
				}
			}
		}
	}
}

func TestPropertyDeterministicUnderChurn(t *testing.T) {
	// Even with attachments and departures mid-run, identical configs give
	// identical traces.
	params := randtree.Params{MinNodes: 10, MaxNodes: 40, MinComm: 1, MaxComm: 30, Comp: 500}
	rng := rand.New(rand.NewPCG(6, 6))
	for i := 0; i < 5; i++ {
		tr := randtree.TreeAt(params, 777, i)
		sub := tree.New(rng.Int64N(300) + 1)
		sub.AddChild(sub.Root(), rng.Int64N(300)+1, rng.Int64N(20)+1)
		cfg := Config{
			Tree:        tr,
			Protocol:    protocol.Interruptible(2),
			Tasks:       400,
			Attachments: []AttachMutation{{AfterTasks: 100, Parent: 0, Subtree: sub, C: 3}},
			Departures:  []DepartMutation{{AfterTasks: 250, Node: tree.NodeID(rng.IntN(tr.Len()-1) + 1)}},
		}
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if a.Makespan != b.Makespan || a.Steps != b.Steps || a.Requeued != b.Requeued {
			t.Fatalf("tree %d: churn runs diverged: (%d,%d,%d) vs (%d,%d,%d)",
				i, a.Makespan, a.Steps, a.Requeued, b.Makespan, b.Steps, b.Requeued)
		}
		for k := range a.Completions {
			if a.Completions[k] != b.Completions[k] {
				t.Fatalf("tree %d: completions diverged at %d", i, k)
			}
		}
	}
}
