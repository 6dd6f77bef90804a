package bwcs_test

// Cross-validation of the Workload API against the legacy positional
// API: a single-workload EvaluateWorkloads run must be event-for-event
// identical to Evaluate (the determinism pin for the multi-application
// machinery), and the functional options must reach the engine.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bwcs"
)

func pinTrees() []*bwcs.Tree {
	trees := []*bwcs.Tree{bwcs.ExampleTree()}
	for i := 0; i < 4; i++ {
		trees = append(trees, bwcs.GenerateTree(bwcs.DefaultTreeParams(), 2003, i))
	}
	return trees
}

// TestSingleWorkloadMatchesEvaluate pins that the tagged multi-app path
// reproduces the legacy path exactly: same completion times, same
// analysis verdicts, and the one app owns the whole stream.
func TestSingleWorkloadMatchesEvaluate(t *testing.T) {
	const tasks = 3000
	ctx := context.Background()
	for ti, tr := range pinTrees() {
		for _, p := range []bwcs.Protocol{bwcs.IC(3), bwcs.NonIC(1)} {
			legacy, err := bwcs.Evaluate(tr, p, tasks)
			if err != nil {
				t.Fatalf("tree %d: Evaluate: %v", ti, err)
			}
			multi, err := bwcs.EvaluateWorkloads(ctx, tr, p, []bwcs.Workload{{App: "only", Tasks: tasks}})
			if err != nil {
				t.Fatalf("tree %d: EvaluateWorkloads: %v", ti, err)
			}
			lc, mc := legacy.Result.Completions, multi.Result.Completions
			if len(lc) != len(mc) {
				t.Fatalf("tree %d: %d vs %d completions", ti, len(lc), len(mc))
			}
			for i := range lc {
				if lc[i] != mc[i] {
					t.Fatalf("tree %d: completion %d differs: %d vs %d", ti, i, lc[i], mc[i])
				}
			}
			if legacy.Reached != multi.Aggregate.Reached || legacy.Class != multi.Aggregate.Class {
				t.Fatalf("tree %d: analysis differs: (%v,%v) vs (%v,%v)",
					ti, legacy.Reached, legacy.Class, multi.Aggregate.Reached, multi.Aggregate.Class)
			}
			if !legacy.Steady.Rate.Equal(multi.Aggregate.Steady.Rate) {
				t.Fatalf("tree %d: steady rate differs", ti)
			}
			app := multi.Apps[0]
			if int64(len(app.Completions)) != tasks || app.Share != 1 {
				t.Fatalf("tree %d: app stream %d tasks, share %v", ti, len(app.Completions), app.Share)
			}
			if multi.Fairness != 1 {
				t.Fatalf("tree %d: single-app fairness = %v, want 1", ti, multi.Fairness)
			}
		}
	}
}

func TestEvaluateWorkloadsErrors(t *testing.T) {
	ctx := context.Background()
	tr := bwcs.NewTree(3)
	if _, err := bwcs.EvaluateWorkloads(ctx, tr, bwcs.IC(3), nil); err == nil || !strings.Contains(err.Error(), "no workloads") {
		t.Fatalf("nil workloads: err = %v", err)
	}
	one := []bwcs.Workload{{App: "a", Tasks: 1}}
	if _, err := bwcs.EvaluateWorkloads(ctx, tr, bwcs.IC(3), one); err == nil || !strings.Contains(err.Error(), "at least 2 tasks") {
		t.Fatalf("tiny workload: err = %v", err)
	}
	dup := []bwcs.Workload{{App: "a", Tasks: 5}, {App: "a", Tasks: 5}}
	if _, err := bwcs.EvaluateWorkloads(ctx, tr, bwcs.IC(3), dup); err == nil {
		t.Fatalf("duplicate app accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel() // pre-canceled: the run must abort, not drain
	two := []bwcs.Workload{{App: "a", Tasks: 2500}, {App: "b", Tasks: 2500}}
	if _, err := bwcs.EvaluateWorkloads(canceled, bwcs.ExampleTree(), bwcs.IC(3), two); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v, want wrapped context.Canceled", err)
	}
}

// TestOptionsReachEngine exercises the functional options end to end:
// WithMetrics captures the run's counters, WithDepartures mutates the
// platform, WithWindow changes the onset verdict, and the same options
// work on both entry points.
func TestOptionsReachEngine(t *testing.T) {
	ctx := context.Background()
	tr := bwcs.ExampleTree()

	var m bwcs.SimMetrics
	sum, err := bwcs.Evaluate(tr, bwcs.IC(3), 2000, bwcs.WithMetrics(&m))
	if err != nil {
		t.Fatalf("Evaluate with options: %v", err)
	}
	if m.ComputesDone != 2000 {
		t.Fatalf("WithMetrics: ComputesDone = %d, want 2000", m.ComputesDone)
	}
	if sum.Result.Metrics.ComputesDone != m.ComputesDone {
		t.Fatalf("metrics snapshot diverges from result")
	}

	tr2 := bwcs.NewTree(8)
	c := tr2.AddChild(tr2.Root(), 4, 1)
	tr2.AddChild(c, 4, 1)
	ws := []bwcs.Workload{{App: "a", Tasks: 300}, {App: "b", Tasks: 300, Weight: 2}}
	var m2 bwcs.SimMetrics
	multi, err := bwcs.EvaluateWorkloads(ctx, tr2, bwcs.IC(3), ws,
		bwcs.WithMetrics(&m2),
		bwcs.WithDepartures(bwcs.DepartMutation{AfterTasks: 100, Node: c}),
		bwcs.WithWindow(10),
	)
	if err != nil {
		t.Fatalf("EvaluateWorkloads with options: %v", err)
	}
	if multi.Result.Requeued == 0 {
		t.Fatalf("WithDepartures: nothing requeued")
	}
	var requeued int64
	for _, a := range multi.Apps {
		requeued += a.Requeued
	}
	if requeued != multi.Result.Requeued {
		t.Fatalf("per-app requeued %d != aggregate %d", requeued, multi.Result.Requeued)
	}
	if m2.ComputesDone != 600 {
		t.Fatalf("WithMetrics on workloads: ComputesDone = %d, want 600", m2.ComputesDone)
	}
}
