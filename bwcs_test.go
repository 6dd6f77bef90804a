package bwcs

import (
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/window"
)

func TestQuickstartFlow(t *testing.T) {
	tr := NewTree(10)
	tr.AddChild(tr.Root(), 5, 1)
	tr.AddChild(tr.Root(), 2, 8)
	sum, err := Evaluate(tr, IC(3), 2000)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if sum.Optimal.Rate.Sign() <= 0 {
		t.Fatalf("non-positive optimal rate")
	}
	if got := len(sum.Result.Completions); got != 2000 {
		t.Fatalf("completions = %d", got)
	}
	if !sum.Reached {
		t.Fatalf("bandwidth-rich 3-node platform did not reach optimal")
	}
	if sum.Onset <= window.DefaultThreshold {
		t.Fatalf("onset %d not after threshold %d", sum.Onset, window.DefaultThreshold)
	}
}

func TestEvaluateRejectsTinyRuns(t *testing.T) {
	if _, err := Evaluate(NewTree(5), IC(1), 1); err == nil {
		t.Fatalf("accepted 1-task run")
	}
}

func TestProtocolsConstructors(t *testing.T) {
	if p := IC(3); !p.Interruptible || p.InitialBuffers != 3 {
		t.Fatalf("IC wrong: %+v", p)
	}
}

func TestGenerateTreeDeterministic(t *testing.T) {
	a := GenerateTree(DefaultTreeParams(), 3, 14)
	b := GenerateTree(DefaultTreeParams(), 3, 14)
	if a.Len() != b.Len() {
		t.Fatalf("same-index trees differ")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated tree invalid: %v", err)
	}
}

func TestExampleTreeSimulates(t *testing.T) {
	sum, err := Evaluate(ExampleTree(), IC(3), 1000)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if sum.Result.UsedCount() < 2 {
		t.Fatalf("example platform barely used: %d nodes", sum.Result.UsedCount())
	}
}

func TestMutationsThroughFacade(t *testing.T) {
	res, err := Simulate(SimConfig{
		Tree:      ExampleTree(),
		Protocol:  protocol.NonInterruptibleFixed(2),
		Tasks:     500,
		Mutations: []engine.Mutation{{AfterTasks: 100, Node: 1, C: 3}},
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Tree.C(1) != 3 {
		t.Fatalf("mutation not applied")
	}
}
