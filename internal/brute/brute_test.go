package brute

import (
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

func mustSearch(t *testing.T, tr *tree.Tree, tasks int) *Result {
	t.Helper()
	r, err := Search(tr, tasks, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return r
}

func TestSingleNodeIsSerial(t *testing.T) {
	tr := tree.New(7)
	for tasks := 1; tasks <= 5; tasks++ {
		r := mustSearch(t, tr, tasks)
		if want := sim.Time(7 * tasks); r.Makespan != want {
			t.Fatalf("tasks=%d makespan=%d, want %d", tasks, r.Makespan, want)
		}
	}
}

func TestDelegationBeatsGreedyLocalCompute(t *testing.T) {
	// Root w=100 with a child (w=1, c=1), 2 tasks: computing locally
	// costs 100; sending both costs max(1+1, 2+1) = 3.
	tr := tree.New(100)
	tr.AddChild(tr.Root(), 1, 1)
	r := mustSearch(t, tr, 2)
	if r.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3", r.Makespan)
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Root w=2 and child (w=2, c=1), 2 tasks: compute one locally (2)
	// while sending the other (arrives 1, done 3) => makespan 3.
	tr := tree.New(2)
	tr.AddChild(tr.Root(), 2, 1)
	r := mustSearch(t, tr, 2)
	if r.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3", r.Makespan)
	}
}

func TestTwoChildrenSplit(t *testing.T) {
	// Root w=10, children (w=2,c=1) and (w=2,c=1), 3 tasks. Send one to
	// each (arrive 1 and 2, done 3 and 4); compute one locally? 10. Or
	// send the third to the first child (arrives 3, done 5): makespan 5.
	tr := tree.New(10)
	tr.AddChild(tr.Root(), 2, 1)
	tr.AddChild(tr.Root(), 2, 1)
	r := mustSearch(t, tr, 3)
	if r.Makespan != 5 {
		t.Fatalf("makespan = %d, want 5", r.Makespan)
	}
}

func TestDeepChainRelay(t *testing.T) {
	// root -> a (c=1) -> b (c=1), b is the only fast CPU (w=1; others
	// w=50). 1 task: send root->a (1), relay a->b (2), compute (3).
	tr := tree.New(50)
	a := tr.AddChild(tr.Root(), 50, 1)
	tr.AddChild(a, 1, 1)
	r := mustSearch(t, tr, 1)
	if r.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3", r.Makespan)
	}
}

func TestInputValidation(t *testing.T) {
	tr := tree.New(2)
	if _, err := Search(tr, 0, Options{}); err == nil {
		t.Fatalf("zero tasks accepted")
	}
	if _, err := Search(tr, 100, Options{}); err == nil {
		t.Fatalf("oversized instance accepted")
	}
	big := tree.New(1)
	for i := 0; i < 10; i++ {
		big.AddChild(big.Root(), 1, 1)
	}
	if _, err := Search(big, 2, Options{}); err == nil {
		t.Fatalf("oversized platform accepted")
	}
}

func TestStateBudget(t *testing.T) {
	tr := tree.New(3)
	tr.AddChild(tr.Root(), 2, 1)
	tr.AddChild(tr.Root(), 4, 2)
	if _, err := Search(tr, 8, Options{MaxStates: 10}); err == nil {
		t.Fatalf("budget exhaustion not reported")
	}
}

// tinyPlatforms are the cross-validation instances.
func tinyPlatforms() []*tree.Tree {
	var out []*tree.Tree
	t1 := tree.New(3)
	t1.AddChild(t1.Root(), 2, 1)
	out = append(out, t1)

	t2 := tree.New(4)
	t2.AddChild(t2.Root(), 2, 1)
	t2.AddChild(t2.Root(), 3, 2)
	out = append(out, t2)

	t3 := tree.New(5)
	a := t3.AddChild(t3.Root(), 3, 1)
	t3.AddChild(a, 2, 2)
	out = append(out, t3)

	t4 := tree.New(2)
	t4.AddChild(t4.Root(), 1, 3) // link slower than both CPUs
	out = append(out, t4)
	return out
}

// TestEngineNeverBeatsBruteForce: engine schedules are valid schedules, so
// the exhaustive optimum lower-bounds every protocol's makespan.
func TestEngineNeverBeatsBruteForce(t *testing.T) {
	protos := []protocol.Protocol{
		protocol.Interruptible(1),
		protocol.Interruptible(3),
		protocol.NonInterruptible(1),
		protocol.NonInterruptibleFixed(2),
	}
	for pi, tr := range tinyPlatforms() {
		for tasks := 1; tasks <= 8; tasks++ {
			opt := mustSearch(t, tr, tasks)
			for _, p := range protos {
				res, err := engine.Run(engine.Config{Tree: tr, Protocol: p, Tasks: int64(tasks)})
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				if res.Makespan < opt.Makespan {
					t.Fatalf("platform %d tasks %d %v: engine %d < brute %d", pi, tasks, p, res.Makespan, opt.Makespan)
				}
			}
		}
	}
}

// TestBruteForceRespectsSteadyStateBound: T tasks cannot finish faster
// than T·wtree − K for a startup constant K ≤ Σ(w_i + c_i): the theorem's
// rate is an upper bound on sustainable throughput.
func TestBruteForceRespectsSteadyStateBound(t *testing.T) {
	for pi, tr := range tinyPlatforms() {
		alloc := optimal.Compute(tr)
		var slack int64
		tr.Walk(func(id tree.NodeID) bool {
			slack += tr.W(id) + tr.C(id)
			return true
		})
		for tasks := 2; tasks <= 8; tasks += 2 {
			r := mustSearch(t, tr, tasks)
			bound := rational.FromInt(int64(tasks)).Mul(alloc.TreeWeight).Sub(rational.FromInt(slack))
			if rational.FromInt(int64(r.Makespan)).Cmp(bound) < 0 {
				t.Fatalf("platform %d tasks %d: brute makespan %d below steady-state bound %s",
					pi, tasks, r.Makespan, bound.Format(2))
			}
		}
	}
}

// TestICCloseToBruteOptimum quantifies the headline claim on small
// instances: the autonomous IC FB=3 protocol's makespan is within a small
// additive constant of the provable optimum.
func TestICCloseToBruteOptimum(t *testing.T) {
	for pi, tr := range tinyPlatforms() {
		var slack int64
		tr.Walk(func(id tree.NodeID) bool {
			slack += tr.W(id) + tr.C(id)
			return true
		})
		for tasks := 4; tasks <= 8; tasks += 2 {
			opt := mustSearch(t, tr, tasks)
			res, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: int64(tasks)})
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if int64(res.Makespan) > int64(opt.Makespan)+slack {
				t.Fatalf("platform %d tasks %d: IC makespan %d far from optimum %d (slack %d)",
					pi, tasks, res.Makespan, opt.Makespan, slack)
			}
		}
	}
}
