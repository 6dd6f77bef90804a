package bwcs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
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
	if sum.Onset <= OnsetThreshold {
		t.Fatalf("onset %d not after threshold %d", sum.Onset, OnsetThreshold)
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
	if p := NonIC(1); p.Interruptible || !p.Grow {
		t.Fatalf("NonIC wrong: %+v", p)
	}
	if p := NonICFixed(2); p.Interruptible || p.Grow || p.InitialBuffers != 2 {
		t.Fatalf("NonICFixed wrong: %+v", p)
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
	sum, err := Evaluate(ExampleTree(), NonICFixed(2), 1000)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if sum.Result.UsedCount() < 2 {
		t.Fatalf("example platform barely used: %d nodes", sum.Result.UsedCount())
	}
}

func TestTreeCodecRoundTripViaFacade(t *testing.T) {
	tr := ExampleTree()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := DecodeTree(&buf)
	if err != nil {
		t.Fatalf("DecodeTree: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost nodes")
	}
}

func TestMutationsThroughFacade(t *testing.T) {
	res, err := Simulate(SimConfig{
		Tree:      ExampleTree(),
		Protocol:  NonICFixed(2),
		Tasks:     500,
		Mutations: []Mutation{{AfterTasks: 100, Node: 1, C: 3}},
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Tree.C(1) != 3 {
		t.Fatalf("mutation not applied")
	}
}

func TestRateSeriesThroughFacade(t *testing.T) {
	sum, err := Evaluate(ExampleTree(), IC(3), 800)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s, err := NewRateSeries(sum.Result.Completions, sum.Optimal.TreeWeight)
	if err != nil {
		t.Fatalf("NewRateSeries: %v", err)
	}
	if s.Windows() != 400 {
		t.Fatalf("windows = %d", s.Windows())
	}
}

func TestTimelineThroughFacade(t *testing.T) {
	sum, err := Evaluate(ExampleTree(), IC(3), 2000, WithTimeline(64))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if sum.Timeline == nil {
		t.Fatalf("WithTimeline set but Summary.Timeline nil")
	}
	rate := sum.Timeline.Find("rate")
	if rate == nil || len(rate.Points) == 0 {
		t.Fatalf("timeline missing the rate series: %+v", sum.Timeline)
	}
	if !sum.Converged {
		t.Fatalf("steady 2000-task run did not converge")
	}
	if sum.ConvergedAt <= 0 || sum.ConvergedAt > sum.Result.Makespan {
		t.Fatalf("ConvergedAt = %d outside (0, %d]", sum.ConvergedAt, sum.Result.Makespan)
	}

	// Without the option the run pays nothing and reports nothing.
	plain, err := Evaluate(ExampleTree(), IC(3), 2000)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if plain.Timeline != nil || plain.Converged || plain.ConvergedAt != 0 {
		t.Fatalf("timeline fields set without WithTimeline: %+v", plain)
	}
}

func TestSimulateContextMatchesSimulate(t *testing.T) {
	cfg := SimConfig{Tree: ExampleTree(), Protocol: IC(3), Tasks: 500}
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	ctxed, err := SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("SimulateContext: %v", err)
	}
	if plain.Makespan != ctxed.Makespan || plain.Steps != ctxed.Steps {
		t.Fatalf("context run diverged: makespan %v vs %v, steps %d vs %d",
			plain.Makespan, ctxed.Makespan, plain.Steps, ctxed.Steps)
	}
}

func TestSimulateContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: the run must abort, not drain
	_, err := SimulateContext(ctx, SimConfig{Tree: ExampleTree(), Protocol: IC(3), Tasks: 5000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestEvaluateContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := EvaluateContext(ctx, ExampleTree(), IC(3), 5000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = EvaluateContext(canceled, ExampleTree(), IC(3), 5000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestEvaluateContextUncanceled(t *testing.T) {
	sum, err := EvaluateContext(context.Background(), ExampleTree(), IC(3), 800)
	if err != nil {
		t.Fatalf("EvaluateContext: %v", err)
	}
	if len(sum.Result.Completions) != 800 {
		t.Fatalf("completions = %d", len(sum.Result.Completions))
	}
}
