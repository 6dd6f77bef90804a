package engine

// Multi-workload tests: the tagging invariance (a multi-application run's
// aggregate schedule is identical to the single-application run of the
// same total size), per-application conservation, weighted sharing,
// mid-run releases, and departure requeue attribution.

import (
	"testing"

	"bwcs/internal/protocol"
	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

// TestWorkloadsAggregateMatchesSingle is the determinism pin at the engine
// level: splitting the same task count across applications must not move a
// single aggregate completion, on every platform shape and protocol,
// because scheduling decisions read only untagged totals.
func TestWorkloadsAggregateMatchesSingle(t *testing.T) {
	const tasks = 600
	ws := []Workload{
		{App: "a", Tasks: 100, Weight: 1},
		{App: "b", Tasks: 200, Weight: 3},
		{App: "c", Tasks: 300, Weight: 2},
	}
	for _, tr := range propertyTrees(t) {
		for _, p := range propertyProtocols {
			single := mustRun(t, Config{Tree: tr, Protocol: p, Tasks: tasks, Seed: 9})
			multi := mustRun(t, Config{Tree: tr, Protocol: p, Workloads: ws, Seed: 9})
			if len(single.Completions) != len(multi.Completions) {
				t.Fatalf("%v: %d vs %d completions", p, len(single.Completions), len(multi.Completions))
			}
			for i := range single.Completions {
				if single.Completions[i] != multi.Completions[i] {
					t.Fatalf("%v: completion %d at %d (multi) vs %d (single)",
						p, i, multi.Completions[i], single.Completions[i])
				}
			}
			if multi.Makespan != single.Makespan {
				t.Fatalf("%v: makespan %d vs %d", p, multi.Makespan, single.Makespan)
			}
		}
	}
}

// TestWorkloadsConservation: every application's tasks all complete, each
// app's completion times are ascending, and the per-app streams merge
// exactly into the aggregate stream.
func TestWorkloadsConservation(t *testing.T) {
	ws := []Workload{
		{App: "a", Tasks: 150, Weight: 2},
		{App: "b", Tasks: 250, Weight: 1},
		{App: "c", Tasks: 200, Weight: 5},
	}
	for _, tr := range propertyTrees(t) {
		res := mustRun(t, Config{Tree: tr, Protocol: protocol.Interruptible(3), Workloads: ws})
		if len(res.Apps) != len(ws) {
			t.Fatalf("Apps = %d, want %d", len(res.Apps), len(ws))
		}
		counts := make(map[sim.Time]int)
		for i, ar := range res.Apps {
			if ar.App != ws[i].App || ar.Tasks != ws[i].Tasks || ar.Weight != protocol.Weight(ws[i].Weight) {
				t.Fatalf("app %d echo mismatch: %+v vs %+v", i, ar, ws[i])
			}
			if int64(len(ar.Completions)) != ws[i].Tasks {
				t.Fatalf("app %s: %d completions, want %d", ar.App, len(ar.Completions), ws[i].Tasks)
			}
			for j := 1; j < len(ar.Completions); j++ {
				if ar.Completions[j] < ar.Completions[j-1] {
					t.Fatalf("app %s: completions not ascending at %d", ar.App, j)
				}
			}
			for _, c := range ar.Completions {
				counts[c]++
			}
		}
		for _, c := range res.Completions {
			counts[c]--
		}
		for at, k := range counts {
			if k != 0 {
				t.Fatalf("per-app and aggregate completion multisets differ at t=%d (delta %d)", at, k)
			}
		}
	}
}

// TestWorkloadsWeightedShares: on a star platform where every application
// stays eligible throughout, service over a mid-run window is ordered by
// weight and close to proportional.
func TestWorkloadsWeightedShares(t *testing.T) {
	star := tree.New(9)
	for i := 0; i < 8; i++ {
		star.AddChild(star.Root(), 6, 2)
	}
	ws := []Workload{
		{App: "small", Tasks: 1000, Weight: 1},
		{App: "mid", Tasks: 2000, Weight: 2},
		{App: "big", Tasks: 4000, Weight: 4},
	}
	res := mustRun(t, Config{Tree: star, Protocol: protocol.Interruptible(3), Workloads: ws})
	n := len(res.Completions)
	lo, hi := res.Completions[n/5], res.Completions[n*4/5]
	share := make([]int, len(ws))
	for a, ar := range res.Apps {
		for _, c := range ar.Completions {
			if c > lo && c <= hi {
				share[a]++
			}
		}
	}
	if !(share[0] < share[1] && share[1] < share[2]) {
		t.Fatalf("shares not monotone in weight: %v", share)
	}
	// Weight-normalized shares should agree within 15% while all pools
	// stay occupied (tasks were provisioned proportional to weights).
	per := []float64{float64(share[0]) / 1, float64(share[1]) / 2, float64(share[2]) / 4}
	for i := 1; i < len(per); i++ {
		ratio := per[i] / per[0]
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("weight-normalized shares uneven: %v (shares %v)", per, share)
		}
	}
}

// TestWorkloadsRelease: an application released mid-run completes nothing
// before its release time, and everything afterwards.
func TestWorkloadsRelease(t *testing.T) {
	tr := tree.New(4)
	tr.AddChild(tr.Root(), 4, 1)
	tr.AddChild(tr.Root(), 4, 2)
	const release = sim.Time(500)
	ws := []Workload{
		{App: "resident", Tasks: 400, Weight: 1},
		{App: "tenant", Tasks: 100, Weight: 1, Release: release},
	}
	res := mustRun(t, Config{Tree: tr, Protocol: protocol.Interruptible(3), Workloads: ws})
	tenant := res.Apps[1]
	if int64(len(tenant.Completions)) != 100 {
		t.Fatalf("tenant completed %d of 100", len(tenant.Completions))
	}
	if first := tenant.Completions[0]; first <= release {
		t.Fatalf("tenant completion at %d, before release %d", first, release)
	}
	if res.Apps[0].Completions[0] >= release {
		t.Fatalf("resident idle until the tenant arrived")
	}
}

// TestWorkloadsDepartureRequeue: a departure loses tasks of specific
// applications; the per-app requeue attribution must sum to the aggregate
// and every application must still finish all its tasks.
func TestWorkloadsDepartureRequeue(t *testing.T) {
	tr := tree.New(6)
	c := tr.AddChild(tr.Root(), 4, 1)
	tr.AddChild(c, 3, 2)
	tr.AddChild(tr.Root(), 5, 3)
	ws := []Workload{
		{App: "a", Tasks: 300, Weight: 1},
		{App: "b", Tasks: 300, Weight: 2},
	}
	res := mustRun(t, Config{
		Tree: tr, Protocol: protocol.Interruptible(2), Workloads: ws,
		Departures: []DepartMutation{{AfterTasks: 150, Node: c}},
	})
	var sum int64
	for _, ar := range res.Apps {
		if int64(len(ar.Completions)) != ar.Tasks {
			t.Fatalf("app %s completed %d of %d", ar.App, len(ar.Completions), ar.Tasks)
		}
		sum += ar.Requeued
	}
	if sum != res.Requeued {
		t.Fatalf("per-app requeued sums to %d, aggregate %d", sum, res.Requeued)
	}
	if res.Requeued == 0 {
		t.Fatalf("departure requeued nothing; test exercises no attribution")
	}
}

// TestWorkloadsValidate: config errors for malformed workload sets.
func TestWorkloadsValidate(t *testing.T) {
	tr := tree.New(3)
	base := func() Config {
		return Config{Tree: tr, Protocol: protocol.Interruptible(1)}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"both tasks and workloads", func(c *Config) {
			c.Tasks = 5
			c.Workloads = []Workload{{App: "a", Tasks: 5}}
		}},
		{"empty app name", func(c *Config) { c.Workloads = []Workload{{Tasks: 5}} }},
		{"duplicate app", func(c *Config) {
			c.Workloads = []Workload{{App: "a", Tasks: 5}, {App: "a", Tasks: 5}}
		}},
		{"negative tasks", func(c *Config) { c.Workloads = []Workload{{App: "a", Tasks: -1}} }},
		{"negative weight", func(c *Config) { c.Workloads = []Workload{{App: "a", Tasks: 5, Weight: -2}} }},
		{"negative release", func(c *Config) { c.Workloads = []Workload{{App: "a", Tasks: 5, Release: -1}} }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: Run accepted invalid config", tc.name)
		}
	}
}
