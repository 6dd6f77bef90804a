package experiments

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/steady"
	"bwcs/internal/tree"
)

// TestNoPrintedRateAboveOptimal holds every rate the repo prints to
// Theorem 1, exactly. (a) Figure 7 and reconverge at every size a
// committed artifact prints them: each tail must have a period, at or
// below its phase's optimum. (b) A seeded sample of small-alphabet trees
// under each Figure 4 protocol, unmutated and with one mid-run c×3 or w÷3:
// no pre-mutation, post-mutation or whole-run period may beat its phase's
// optimum, and most segments must find one, so the check cannot pass
// vacuously. Paper-default trees rarely settle within 2,000 tasks, hence
// the small alphabet.
func TestNoPrintedRateAboveOptimal(t *testing.T) {
	atMost := func(what string, d steady.Detection, opt rational.Rat) {
		t.Helper()
		if !d.Found || d.Rate.Cmp(opt) > 0 {
			t.Errorf("%s: tail %v against optimal %v", what, d, opt)
		}
	}
	// all.golden runs both at 600 tasks; all_default_scale.txt and
	// extras.txt print Figure 7 at 1,000; reconverge.json is 2,000 tasks.
	for _, tasks := range []int64{600, 1000} {
		r, err := Fig7(tasks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range r.Scenarios {
			atMost("fig7 "+sc.Name, sc.Tail, sc.OptimalAfter)
		}
	}
	for _, tasks := range []int64{600, 2000} {
		r, err := Reconverge(tasks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range r.Scenarios {
			atMost("reconverge "+sc.Name, sc.Tail, sc.OptimalAfter)
		}
	}

	const (
		trees    = 300
		tasks    = 2000
		mutateAt = 400
	)
	params := randtree.Params{MinNodes: 4, MaxNodes: 16, MinComm: 1, MaxComm: 4, Comp: 8}
	var segments, found int
	check := func(i int, p string, seg []sim.Time, t0 *tree.Tree) {
		t.Helper()
		segments++
		d := steady.Detect(seg)
		if d.Found {
			found++
		}
		if d.Classify(optimal.Weight(t0)) == steady.Anomalous {
			t.Errorf("tree %d under %s: %v beats Theorem 1", i, p, d)
		}
	}
	for i := range trees {
		before := randtree.TreeAt(params, 2003, i)
		node := tree.NodeID(1 + rand.New(rand.NewPCG(2003, uint64(i))).IntN(before.Len()-1))
		for _, p := range Fig4Protocols() {
			res, err := engine.Run(engine.Config{Tree: before, Protocol: p, Tasks: tasks})
			if err != nil {
				t.Fatal(err)
			}
			check(i, p.Label, res.Completions, before)
			for _, m := range []engine.Mutation{
				{AfterTasks: mutateAt, Node: node, C: 3 * before.C(node)},
				{AfterTasks: mutateAt, Node: node, W: max(1, before.W(node)/3)},
			} {
				after := before.Clone()
				m.Apply(after)
				res, err := engine.Run(engine.Config{Tree: before, Protocol: p, Tasks: tasks, Mutations: []engine.Mutation{m}})
				if err != nil {
					t.Fatal(err)
				}
				check(i, p.Label, res.Completions[:mutateAt], before)
				check(i, p.Label, res.Completions[mutateAt:], after)
			}
		}
	}
	if found*100 < segments*85 {
		t.Errorf("a period in only %d of %d segments; the check is near vacuous", found, segments)
	}
	t.Logf("%d of %d segments found a period", found, segments)
}

// TestMakespanAtLeastTheorem1Bound holds every run of a default
// population to Theorem 1 scaled to the run: its LP bounds the
// completions in any prefix [0, t] from empty buffers by t/W, so T tasks
// take at least T·W timesteps, compared exactly with the sweep's own
// optimal weight W. Unlike a detected period's rate, the bound applies to
// every run, periodic or not.
func TestMakespanAtLeastTheorem1Bound(t *testing.T) {
	for _, seed := range []uint64{7, 2003} {
		o := Default()
		o.Trees, o.Tasks, o.Seed = 100, 2000, seed
		protos := Fig4Protocols()
		// The smallest makespan ÷ T·W seen per protocol.
		closest := make([]rational.Rat, len(protos))
		var mu sync.Mutex
		_, err := sweep{
			protos: protos,
			measure: func(col int, oc TreeOutcome, ev *Evaluator) error {
				ratio := rational.FromInt(int64(ev.res.Makespan)).Div(ev.weight.Mul(rational.FromInt(o.Tasks)))
				if ratio.Cmp(rational.One()) < 0 {
					return fmt.Errorf("seed %d tree %d under %v: makespan %d beats Theorem 1's %d·%v", seed, oc.Index, protos[col], ev.res.Makespan, o.Tasks, ev.weight)
				}
				mu.Lock()
				if closest[col].IsZero() || ratio.Cmp(closest[col]) < 0 {
					closest[col] = ratio
				}
				mu.Unlock()
				return nil
			},
		}.run(o)
		if err != nil {
			t.Fatal(err)
		}
		for col, p := range protos {
			t.Logf("seed %d, %v: smallest makespan ÷ T·W %s", seed, p, closest[col].Format(4))
		}
	}
}
