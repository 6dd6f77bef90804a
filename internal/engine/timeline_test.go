package engine

import (
	"testing"

	"bwcs/internal/metrics"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/tree"
)

// timelineFixtureTree is a small two-leaf star: root w=5 with children
// (w=3,c=1) and (w=5,c=2).
func timelineFixtureTree() *tree.Tree {
	t := tree.New(5)
	t.AddChild(0, 3, 1)
	t.AddChild(0, 5, 2)
	return t
}

// TestTimelineDisabledZeroAllocs is the acceptance pin for the disabled
// path: with SampleEvery unset, a warm Runner's run must stay within the
// same allocation budget as before the timeline subsystem existed — the
// telemetry hooks are all behind one nil check and the warm path must
// not pay for them.
func TestTimelineDisabledZeroAllocs(t *testing.T) {
	tr := randtree.TreeAt(runnerParams, 7, 3)
	cfg := Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 600}
	r := NewRunner()
	if _, err := r.Run(cfg); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timeline != nil {
			t.Fatal("Timeline non-nil with SampleEvery unset")
		}
	})
	// Same budget as TestRunnerWarmRunAllocs: the result header and a few
	// words of bookkeeping, nothing from the (disabled) timeline.
	if allocs > 12 {
		t.Fatalf("warm run with timeline disabled allocates %.0f times per run, want <= 12", allocs)
	}
}

// TestTimelineSampling checks the recorded series against ground truth
// on a run small enough to sample every timestep without downsampling:
// the rate series integrates back to the exact task count, utilizations
// are fractions, the pool drains monotonically, and sampling leaves the
// simulation itself untouched.
func TestTimelineSampling(t *testing.T) {
	tr := timelineFixtureTree()
	base := Config{Tree: tr, Protocol: protocol.Interruptible(1), Tasks: 50}

	plain, err := Run(base)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	cfg := base
	cfg.SampleEvery = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}

	// Telemetry is observation only: the run must be event-for-event the
	// unsampled run.
	if res.Makespan != plain.Makespan {
		t.Fatalf("sampling changed the makespan: %d vs %d", res.Makespan, plain.Makespan)
	}
	if len(res.Completions) != len(plain.Completions) {
		t.Fatalf("sampling changed the completion count")
	}
	for i := range res.Completions {
		if res.Completions[i] != plain.Completions[i] {
			t.Fatalf("sampling changed completion %d: %d vs %d", i, res.Completions[i], plain.Completions[i])
		}
	}

	tl := res.Timeline
	if tl == nil {
		t.Fatalf("Timeline nil with SampleEvery set")
	}
	if tl.SampleEvery != 1 {
		t.Fatalf("Timeline.SampleEvery = %d, want 1", tl.SampleEvery)
	}

	rate := tl.Find("rate")
	if rate == nil {
		t.Fatalf("no rate series; have %d series", len(tl.Series))
	}
	// Σ rate·Δt over the intervals is the number of completions; with
	// per-timestep sampling and no downsampling this is exact.
	var prev int64
	var integral float64
	for _, p := range rate.Points {
		integral += p.V * float64(p.T-prev)
		prev = p.T
	}
	if integral != float64(base.Tasks) {
		t.Fatalf("rate integral = %v, want %d", integral, base.Tasks)
	}
	if last := rate.Points[len(rate.Points)-1]; last.T != int64(res.Makespan) {
		t.Fatalf("last rate sample at t=%d, want the makespan %d", last.T, res.Makespan)
	}

	pool := tl.Find("pool_depth")
	if pool == nil {
		t.Fatalf("no pool_depth series")
	}
	for i := 1; i < len(pool.Points); i++ {
		if pool.Points[i].V > pool.Points[i-1].V {
			t.Fatalf("pool depth grew at %d: %v -> %v", i, pool.Points[i-1], pool.Points[i])
		}
	}

	// The root is the only node with children, so exactly one link_util
	// series exists, and a busy fraction is a fraction.
	util := tl.Find("link_util/0")
	if util == nil {
		t.Fatalf("no link_util/0 series")
	}
	for _, s := range tl.Series {
		if s.Name != "link_util/0" && len(s.Name) >= 9 && s.Name[:9] == "link_util" {
			t.Fatalf("unexpected utilization series %q (leaves have no send port)", s.Name)
		}
	}
	var busy bool
	for _, p := range util.Points {
		if p.V < 0 || p.V > 1 {
			t.Fatalf("utilization out of range: %+v", p)
		}
		if p.V > 0 {
			busy = true
		}
	}
	if !busy {
		t.Fatalf("root send port never utilized across %d samples", len(util.Points))
	}
}

// TestTimelineBounded: a run longer than the capacity stays within it by
// coarsening resolution, keeping timestamps ascending.
func TestTimelineBounded(t *testing.T) {
	tr := randtree.TreeAt(runnerParams, 7, 3)
	cfg := Config{
		Tree:        tr,
		Protocol:    protocol.Interruptible(3),
		Tasks:       600,
		SampleEvery: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Timeline.Series {
		if len(s.Points) > timelineCapacity {
			t.Fatalf("series %q holds %d points, capacity %d", s.Name, len(s.Points), timelineCapacity)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].T <= s.Points[i-1].T {
				t.Fatalf("series %q timestamps not ascending at %d", s.Name, i)
			}
		}
	}
	if rate := res.Timeline.Find("rate"); rate.Resolution <= 1 {
		t.Fatalf("rate resolution never coarsened on a long run: %d", rate.Resolution)
	}
}

// TestTimelineResultOutlivesRunner: unlike Completions/Nodes, the
// Timeline must be a copy that survives the Runner's next run.
func TestTimelineResultOutlivesRunner(t *testing.T) {
	tr := timelineFixtureTree()
	cfg := Config{Tree: tr, Protocol: protocol.Interruptible(1), Tasks: 50, SampleEvery: 4}
	r := NewRunner()
	first, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]metrics.Point, len(first.Timeline.Find("rate").Points))
	copy(want, first.Timeline.Find("rate").Points)
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := first.Timeline.Find("rate").Points
	if len(got) != len(want) {
		t.Fatalf("timeline clobbered by the next run: %d vs %d points", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("timeline point %d clobbered by the next run: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestTimelineConfigValidation: nonsense sampling configs are rejected
// up front.
func TestTimelineConfigValidation(t *testing.T) {
	tr := timelineFixtureTree()
	bad := []Config{
		{Tree: tr, Protocol: protocol.Interruptible(1), Tasks: 10, SampleEvery: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted, want validation error", i)
		}
	}
}
