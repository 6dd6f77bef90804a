package live

// Multi-application (multi-tenant) tests: application tags must survive
// every hop of the overlay — chunked transfers, result relay, sever,
// revive, and re-execution — with per-app exactly-once delivery and
// per-app counters that add up.

import (
	"testing"
	"time"
)

// makeAppTasks builds n tasks alternating round-robin over the given
// application names (task i gets apps[i%len(apps)]).
func makeAppTasks(n, size int, apps ...string) []Task {
	tasks := makeTasks(n, size)
	for i := range tasks {
		tasks[i].App = apps[i%len(apps)]
	}
	return tasks
}

// TestTwoAppsShareOverlay runs two tenants through a two-worker overlay
// and checks attribution end to end: every result carries its task's app
// tag, per-app collection counts are exact, and the workers' per-app
// counters cover everything they computed.
func TestTwoAppsShareOverlay(t *testing.T) {
	const tasks = 40
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(20*time.Millisecond)), // slow root: work flows down
		WithChunkSize(512),
	)
	w1 := startNode(t, "w1",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(time.Millisecond)),
	)
	w2 := startNode(t, "w2",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(time.Millisecond)),
	)

	in := makeAppTasks(tasks, 2048, "alpha", "beta")
	results, err := runWithin(root, in, 30*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != tasks {
		t.Fatalf("results = %d, want %d", len(results), tasks)
	}
	wantApp := make(map[uint64]string, tasks)
	for _, task := range in {
		wantApp[task.ID] = task.App
	}
	got := map[string]int{}
	for _, r := range results {
		if r.App != wantApp[r.ID] {
			t.Fatalf("task %d returned with app %q, want %q", r.ID, r.App, wantApp[r.ID])
		}
		got[r.App]++
	}
	if got["alpha"] != tasks/2 || got["beta"] != tasks/2 {
		t.Fatalf("per-app result counts %v, want %d each", got, tasks/2)
	}

	st := root.Stats()
	if c := st.PerApp["alpha"].Collected + st.PerApp["beta"].Collected; c < tasks {
		t.Fatalf("root collected %d tagged results, want >= %d", c, tasks)
	}
	var workerComputed int64
	for _, w := range []*Node{w1, w2} {
		ws := w.Stats()
		for app, a := range ws.PerApp {
			if a.Computed != 0 && app != "alpha" && app != "beta" {
				t.Fatalf("%s computed tasks of unknown app %q", w.cfg.name, app)
			}
			workerComputed += a.Computed
			if a.Received < a.Computed {
				t.Fatalf("%s app %s: received %d < computed %d", w.cfg.name, app, a.Received, a.Computed)
			}
		}
		if ws.Computed != ws.PerApp["alpha"].Computed+ws.PerApp["beta"].Computed {
			t.Fatalf("%s: per-app computed does not sum to total", w.cfg.name)
		}
	}
	rootStats := root.Stats()
	if rootStats.Computed+workerComputed < int64(tasks) {
		t.Fatalf("computed %d tasks overall, want >= %d", rootStats.Computed+workerComputed, tasks)
	}
}

// TestTwoAppsSeverReviveExactlyOnce is the multi-tenant acceptance
// scenario: two applications share a three-level overlay whose middle
// node is severed mid-run by a scripted fault. Tasks of both tenants are
// reclaimed, re-dispatched, and possibly re-executed — yet each tenant's
// results arrive exactly once, still carrying the right app tag.
func TestTwoAppsSeverReviveExactlyOnce(t *testing.T) {
	const tasks = 60

	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(25*time.Millisecond)),
		WithChunkSize(256),
		WithReconnectGrace(-1), // reclaim a dead child's tasks immediately
	)
	sever := NewFaultPlan(FaultRule{
		Link: "parent", Dir: FaultRecv, Kind: FrameChunk,
		After: 15, Op: FaultSever,
	})
	mid := startNode(t, "mid",
		WithParent(root.Addr()), WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(5*time.Millisecond)),
		WithChunkSize(256),
		WithFaultPlan(sever),
		WithReconnect(50*time.Millisecond, 200*time.Millisecond, 10),
	)
	leaf := startNode(t, "leaf",
		WithParent(mid.Addr()), WithBuffers(3),
		WithCompute(echoCompute(2*time.Millisecond)),
	)

	in := makeAppTasks(tasks, 2048, "alpha", "beta")
	results, err := runWithin(root, in, 60*time.Second)
	if err != nil {
		t.Fatalf("Run across the sever: %v", err)
	}
	if len(results) != tasks {
		t.Fatalf("results = %d, want %d", len(results), tasks)
	}

	// Per-app exactly-once: every ID once, under its own app tag.
	wantApp := make(map[uint64]string, tasks)
	for _, task := range in {
		wantApp[task.ID] = task.App
	}
	seen := make(map[uint64]bool, tasks)
	perApp := map[string]int{}
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("task %d delivered twice", r.ID)
		}
		seen[r.ID] = true
		if r.App != wantApp[r.ID] {
			t.Fatalf("task %d returned with app %q, want %q (tag lost across sever/revive)", r.ID, r.App, wantApp[r.ID])
		}
		perApp[r.App]++
	}
	if perApp["alpha"] != tasks/2 || perApp["beta"] != tasks/2 {
		t.Fatalf("per-app delivery %v, want %d each", perApp, tasks/2)
	}

	if sever.Pending() != 0 {
		t.Fatalf("the scripted sever never fired")
	}
	st := root.Stats()
	if st.Requeued == 0 {
		t.Fatalf("root reclaimed nothing from the severed subtree")
	}
	// Requeues carry attribution: the tagged requeue counters must account
	// for every reclaimed task (all tasks in this run are tagged).
	var requeuedTagged int64
	for _, a := range st.PerApp {
		requeuedTagged += a.Requeued
	}
	if requeuedTagged != st.Requeued {
		t.Fatalf("per-app requeued %d != total %d", requeuedTagged, st.Requeued)
	}
	if mid.Stats().Reconnects == 0 {
		t.Fatalf("mid never reconnected")
	}
	if leaf.Stats().Computed == 0 {
		t.Fatalf("leaf never worked")
	}
	t.Logf("requeued %d (tagged %d), per-app %v", st.Requeued, requeuedTagged, perApp)
}

// TestLedgerDedupeCountsPerApp pins the per-application side of a
// ledger-level duplicate: a result already pending in the unacked ledger
// is suppressed and counted under its application as well as in total,
// exactly as childLoop counts an unexpected result.
func TestLedgerDedupeCountsPerApp(t *testing.T) {
	n := newNode(defaults("w"))
	r := Result{ID: 7, Origin: "w1", App: "alpha"}
	n.enqueueResult(r)
	n.enqueueResult(r)
	n.enqueueResult(Result{ID: 7, Origin: "w2", App: "alpha"}) // another origin: not a duplicate
	if len(n.unacked) != 2 {
		t.Fatalf("ledger holds %d entries, want 2", len(n.unacked))
	}
	if got, app := n.stats.ResultsDeduped, n.stats.PerApp["alpha"].Deduped; got != 1 || app != 1 {
		t.Fatalf("deduped: total %d, app alpha %d; want 1 and 1", got, app)
	}
}
