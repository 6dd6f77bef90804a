package engine

import (
	"runtime"
	"slices"
	"testing"

	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/sim"
)

// runnerParams generates mid-sized random platforms for reuse tests.
var runnerParams = randtree.Params{MinNodes: 10, MaxNodes: 120, MinComm: 1, MaxComm: 60, Comp: 3000}

// resultSnapshot captures everything a Result exposes into freshly owned
// memory, so reused-buffer results can be compared across runs.
type resultSnapshot struct {
	completions []sim.Time
	nodes       []NodeStat
	checkpoints []CheckpointStat
	makespan    sim.Time
	steps       uint64
	requeued    int64
	met         Metrics
}

func snapshot(r *Result) resultSnapshot {
	s := resultSnapshot{
		completions: slices.Clone(r.Completions),
		nodes:       slices.Clone(r.Nodes),
		checkpoints: slices.Clone(r.Checkpoints),
		makespan:    r.Makespan,
		steps:       r.Steps,
		requeued:    r.Requeued,
		met:         r.Metrics,
	}
	// The event free list survives across a Runner's runs, so a warm run
	// legitimately reports more FreeListHits and fewer EventAllocs than a
	// cold one. Everything else must be bit-identical.
	s.met.FreeListHits = 0
	s.met.EventAllocs = 0
	return s
}

func equalSnapshots(a, b resultSnapshot) bool {
	return slices.Equal(a.completions, b.completions) &&
		slices.Equal(a.nodes, b.nodes) &&
		slices.Equal(a.checkpoints, b.checkpoints) &&
		a.makespan == b.makespan && a.steps == b.steps &&
		a.requeued == b.requeued && a.met == b.met
}

// TestRunnerReuseBitIdentical: a sequence of runs through one Runner —
// across trees of very different sizes and several protocols — produces
// results identical to fresh package-level Runs of the same configs.
func TestRunnerReuseBitIdentical(t *testing.T) {
	protos := []protocol.Protocol{
		protocol.Interruptible(3),
		protocol.NonInterruptible(1),
		protocol.Interruptible(1),
	}
	r := NewRunner()
	for i := 0; i < 6; i++ {
		tr := randtree.TreeAt(runnerParams, 99, i)
		cfg := Config{
			Tree:        tr,
			Protocol:    protos[i%len(protos)],
			Tasks:       700,
			Seed:        uint64(i),
			Checkpoints: []int64{100, 500},
		}
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("tree %d: fresh Run: %v", i, err)
		}
		want := snapshot(fresh)
		reused, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("tree %d: Runner.Run: %v", i, err)
		}
		if got := snapshot(reused); !equalSnapshots(got, want) {
			t.Fatalf("tree %d: reused-runner result differs from fresh run\nfresh:  %+v\nreused: %+v", i, want, got)
		}
	}
}

// TestRunnerWarmFreeList: from the second run on, the simulator serves
// essentially every event from the recycled free list instead of
// allocating — the cross-tree recycling the sweep path relies on.
func TestRunnerWarmFreeList(t *testing.T) {
	tr := randtree.TreeAt(runnerParams, 7, 3)
	cfg := Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 600}
	r := NewRunner()
	cold, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.Metrics.EventAllocs == 0 {
		t.Fatalf("cold run reported no event allocations")
	}
	warm, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.Metrics.EventAllocs != 0 {
		t.Fatalf("warm run allocated %d events, want 0 (free list not recycled across runs)", warm.Metrics.EventAllocs)
	}
	if warm.Metrics.FreeListHits != cold.Metrics.FreeListHits+cold.Metrics.EventAllocs {
		t.Fatalf("warm hits = %d, want all %d schedules recycled",
			warm.Metrics.FreeListHits, cold.Metrics.FreeListHits+cold.Metrics.EventAllocs)
	}
}

// TestRunnerWarmRunAllocs pins the warm-path allocation profile: after
// the first run, repeating the same run through the Runner allocates only
// the per-run irreducibles (the Result header and a few words of
// bookkeeping — measured at 5 allocations), not the event pool, the tree,
// the node table or the completions buffer.
func TestRunnerWarmRunAllocs(t *testing.T) {
	tr := randtree.TreeAt(runnerParams, 7, 3)
	cfg := Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 600}
	r := NewRunner()
	if _, err := r.Run(cfg); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// A cold engine.Run on this config allocates several hundred times;
	// the warm path must stay within the result-header budget. The bound
	// leaves headroom over the measured 5 to stay robust across
	// toolchains.
	if allocs > 12 {
		t.Fatalf("warm Runner.Run allocates %.0f times per run, want <= 12", allocs)
	}
}

// TestColdRunStaysSmall: the package-level Run builds its Runner, and with
// it the kernel's time ring, from nothing on every call, and internal/brute
// and internal/steady make thousands of such calls on trees of a few
// nodes. The ring therefore starts at one word's worth of slots and grows
// with the delays a run schedules; a ring sized for the paper's w <= 10,000
// up front would put 128 KiB on each of these runs. The parent commit
// (PR 19, heap kernel) allocated 6,032 bytes for this Run.
func TestColdRunStaysSmall(t *testing.T) {
	const parentBytes, runs = 6032, 50
	cfg := Config{Tree: fig1Tree(), Protocol: protocol.Interruptible(3), Tasks: 100}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mustRun(t, cfg)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 2*parentBytes {
		t.Fatalf("a cold Run on the Figure 1 tree allocates %d bytes, want <= %d", got, 2*parentBytes)
	}
}
