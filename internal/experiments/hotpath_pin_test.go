package experiments

import (
	"runtime"
	"testing"
)

// sweepBytesPerTree is the allocation budget of one tree of the
// population sweep on a warm Evaluator: generation (nothing), the optimal
// weight (math/big's GCD temporaries, ≈ 22 KB), four engine runs and four
// onset scans. The protocol-major sweep it replaced regenerated and
// reweighed the tree per protocol and allocated ≈ 520 KB here.
const sweepBytesPerTree = 48 << 10

// TestHotPathAllocsPinnedSweep is the allocation gate for the sweep's
// per-tree pipeline: on an Evaluator that has seen the trees before,
// generating one into the arena allocates nothing, and taking one from
// generation through its weight, the four Fig 4 protocols and their
// onset scans stays under sweepBytesPerTree.
func TestHotPathAllocsPinnedSweep(t *testing.T) {
	o := Default()
	o.Tasks = 900
	const trees = 12
	protos := Fig4Protocols()
	ev := NewEvaluator()
	pass := func() {
		for i := 0; i < trees; i++ {
			ev.load(o, i)
			for _, p := range protos {
				if _, err := ev.run(o, ev.config(o, p)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()

	i := 0
	if allocs := testing.AllocsPerRun(trees, func() {
		ev.gen.TreeAt(o.Seed, i%trees)
		i++
	}); allocs != 0 {
		t.Fatalf("warm tree generation: %v allocs per tree, want 0", allocs)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	perTree := (after.TotalAlloc - before.TotalAlloc) / trees
	t.Logf("%d bytes, %d allocs per tree", perTree, (after.Mallocs-before.Mallocs)/trees)
	if perTree > sweepBytesPerTree {
		t.Fatalf("warm sweep allocates %d bytes per tree, budget %d", perTree, sweepBytesPerTree)
	}
}
