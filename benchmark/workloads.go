package main

import (
	"time"

	"bwcs/internal/experiments"
	"bwcs/internal/tree"
)

// workloadDef names one workload; BENCHMARK.json repeats name and why.
// An op is one simulation (tree × protocol) for sweep-*, one task for
// overlay-*.
type workloadDef struct {
	name string
	why  string
	op   string
	run  func(env) (*outcome, error)
}

var workloads = []workloadDef{
	{"sweep-paper", "Fig 4 + Table 1 at the paper's per-tree scale (150 trees x 10,000 tasks x 4 protocols): engine and sim kernel do ~94% of the work, so an event-loop change shows here.", "sim",
		func(e env) (*outcome, error) {
			return runSweep("sweep-paper", pick(e.tiny, sweepSpec{6, 400, 20, 2, 400}, sweepSpec{150, 10_000, 300, 75, 2_000}), e)
		}},
	{"sweep-short", "Same population and protocols at 800 trees x 900 tasks: per-tree fixed cost dominates (optimal.Weight ~1/3), so analysis, generation and per-run set-up changes show here.", "sim",
		func(e env) (*outcome, error) {
			return runSweep("sweep-short", pick(e.tiny, sweepSpec{12, 120, 10, 3, 120}, sweepSpec{800, 900, 100, 80, 900}), e)
		}},
	{"overlay-small", "Root + 2 leaves over loopback TCP, 10,000-task Runs of 256 B with a gated root: per-task overhead of live (locks, round trips, hand-offs) with the wire almost idle.", "task",
		func(e env) (*outcome, error) {
			s := overlaySpec{tree: star(2), tasks: 10_000, payload: 256, warmRuns: 2, runSizeProbe: true}
			if e.tiny {
				s.tasks, s.warmRuns = 300, 1
			}
			return runOverlay("overlay-small", s, e)
		}},
	{"overlay-bulk", "Chain root-relay-leaf, 2,000-task Runs of 32 KiB echoed back: bytes, chunking, the relay path and large result frames dominate; guards the byte path against small-task tuning.", "task",
		func(e env) (*outcome, error) {
			s := overlaySpec{tree: chain(), tasks: 2_000, payload: 32 << 10, echo: true, warmRuns: 4}
			if e.tiny {
				s.tasks, s.warmRuns = 60, 1
			}
			return runOverlay("overlay-bulk", s, e)
		}},
	{"overlay-model", "The paper's Fig 1 tree live with modelled compute and link times (step 8 ms): CPU idle, so it measures protocol quality, achieved rate vs the Theorem 1 optimum, not host speed.", "task",
		func(e env) (*outcome, error) {
			// 4 chunks per task; a 500-task Run takes ≈5.2 s at the optimal
			// rate (13/15 task per step), so four fit the measured time. The
			// warm-up Run is short: set-up happens setupReps times.
			s := overlaySpec{tree: experiments.ExampleTree(), step: 8 * time.Millisecond,
				tasks: 500, payload: 1024, chunk: 256, warmRuns: 1, warmTasks: 100}
			if e.tiny {
				s.step, s.tasks = time.Millisecond, 80
			}
			return runOverlay("overlay-model", s, e)
		}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func pick[T any](cond bool, a, b T) T {
	if cond {
		return a
	}
	return b
}

// star is a root with n leaf children; chain is root → relay → leaf.
// Weights are unused at step 0 (the overlay then runs at host speed).
func star(n int) *tree.Tree {
	t := tree.New(1)
	for i := 0; i < n; i++ {
		t.AddChild(t.Root(), 1, 1)
	}
	return t
}

func chain() *tree.Tree {
	t := tree.New(1)
	t.AddChild(t.AddChild(t.Root(), 1, 1), 1, 1)
	return t
}
