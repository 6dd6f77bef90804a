package live

// Cross-validation against the discrete-event engine: the same logical
// platform, expressed once in simulator timesteps and once as real
// sleeps/delays, must produce the same qualitative schedule. Both drive
// the one protocol core (internal/protocol), so this no longer checks
// that two implementations of the rules agree; it checks that measured
// link times, real compute and the chunked, pipelined port still let
// those rules produce the simulator's split.

import (
	"testing"
	"time"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/tree"
)

// TestSimAndLiveAgreeOnTaskSplit builds a platform with a strong, clear
// asymmetry — a fast-linked slow CPU, a slow-linked fast CPU, and a
// mid-everything child — and checks that the per-node ranking of computed
// tasks matches between the simulator and the live runtime. Rankings (not
// exact counts) are robust to wall-clock noise.
func TestSimAndLiveAgreeOnTaskSplit(t *testing.T) {
	const tasks = 90
	const step = 2 * time.Millisecond // one simulator timestep in wall time

	// Platform: root w=40; A (c=1, w=4), B (c=12, w=2), C (c=4, w=8).
	tr := tree.New(40)
	tr.AddChild(tr.Root(), 4, 1)  // A: fast link
	tr.AddChild(tr.Root(), 2, 12) // B: fast CPU, slow link
	tr.AddChild(tr.Root(), 8, 4)  // C: middling

	sim, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: tasks})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	sleepCompute := func(w int64) ComputeFunc {
		return func(Task) ([]byte, error) {
			time.Sleep(time.Duration(w) * step)
			return nil, nil
		}
	}
	delays := map[string]time.Duration{
		"A": 1 * step,
		"B": 12 * step,
		"C": 4 * step,
	}
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(sleepCompute(40)),
		WithLinkDelay(func(child string) time.Duration { return delays[child] }),
		WithChunkSize(1<<20), // one chunk per task: the delay is the whole c
	)
	workers := map[string]*Node{}
	for name, w := range map[string]int64{"A": 4, "B": 2, "C": 8} {
		workers[name] = startNode(t, name, WithParent(root.Addr()), WithBuffers(3), WithCompute(sleepCompute(w)))
	}
	if _, err := runWithin(root, makeTasks(tasks, 64), 120*time.Second); err != nil {
		t.Fatalf("live run: %v", err)
	}

	simCounts := map[string]int64{
		"A": sim.Nodes[1].Computed,
		"B": sim.Nodes[2].Computed,
		"C": sim.Nodes[3].Computed,
	}
	liveCounts := map[string]int64{}
	for name, w := range workers {
		liveCounts[name] = w.Stats().Computed
	}
	t.Logf("sim split: %v, live split: %v (root sim %d)", simCounts, liveCounts, sim.Nodes[0].Computed)

	// The fast-linked child dominates in both worlds.
	for _, counts := range []map[string]int64{simCounts, liveCounts} {
		if counts["A"] <= counts["B"] {
			t.Fatalf("A (fast link) did not beat B (slow link): %v", counts)
		}
		if counts["A"] <= counts["C"] {
			t.Fatalf("A (fast link) did not beat C: %v", counts)
		}
	}
	// And the simulator's winner is the live runtime's winner.
	simWinner, liveWinner := argmax(simCounts), argmax(liveCounts)
	if simWinner != liveWinner {
		t.Fatalf("winners disagree: sim %s, live %s", simWinner, liveWinner)
	}
}

// TestSimAndLiveAgreeOnDeparture cross-validates the failure-recovery
// semantics: the engine's DepartMutation (a subtree leaves mid-run, its
// tasks requeue at the root) against the live runtime's recovery from a
// severed link with reconnection disabled — the same logical event. Both
// worlds must complete every task anyway, and both must record requeues.
func TestSimAndLiveAgreeOnDeparture(t *testing.T) {
	const tasks = 90

	// Platform: root w=30 with two equal children; one departs mid-run.
	tr := tree.New(30)
	tr.AddChild(tr.Root(), 3, 1) // A: stays
	tr.AddChild(tr.Root(), 3, 1) // D: departs after 30 tasks

	sim, err := engine.Run(engine.Config{
		Tree: tr, Protocol: protocol.Interruptible(3), Tasks: tasks,
		Departures: []engine.DepartMutation{{AfterTasks: 30, Node: 2}},
	})
	if err != nil {
		t.Fatalf("engine with departure: %v", err)
	}
	if got := int64(len(sim.Completions)); got != tasks {
		t.Fatalf("engine completed %d of %d tasks after the departure", got, tasks)
	}
	if sim.Requeued == 0 {
		t.Fatalf("engine departure requeued nothing")
	}
	if !sim.Nodes[2].Departed {
		t.Fatalf("node 2 not marked departed")
	}

	// Live: the same shape. D's uplink is severed by a scripted fault and
	// its reconnection is disabled, so the sever is a permanent departure;
	// the root reclaims after a short grace window.
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(30*time.Millisecond)),
		WithChunkSize(256),
		WithReconnectGrace(50*time.Millisecond),
	)
	a := startNode(t, "A",
		WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(3*time.Millisecond)),
	)
	d := startNode(t, "D",
		WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(3*time.Millisecond)),
		WithChunkSize(256),
		WithFaultPlan(NewFaultPlan(FaultRule{
			Link: "parent", Dir: FaultRecv, Kind: FrameChunk,
			After: 40, Op: FaultSever,
		})),
		WithReconnect(0, 0, -1), // a severed link is a permanent departure
	)
	results, err := runWithin(root, makeTasks(tasks, 2048), 60*time.Second)
	if err != nil {
		t.Fatalf("live run across the departure: %v", err)
	}
	if len(results) != tasks {
		t.Fatalf("live completed %d of %d tasks after the departure", len(results), tasks)
	}
	if got := root.Stats().Requeued; got == 0 {
		t.Fatalf("live departure requeued nothing")
	}
	if a.Stats().Computed == 0 {
		t.Fatalf("the surviving worker computed nothing")
	}
	if d.Err() == nil {
		t.Fatalf("the departed worker should have declared its parent lost")
	}
	t.Logf("requeued: sim %d, live %d; departed worker computed %d before the sever",
		sim.Requeued, root.Stats().Requeued, d.Stats().Computed)
}

func argmax(m map[string]int64) string {
	best, bestV := "", int64(-1)
	for k, v := range m {
		if v > bestV || (v == bestV && k < best) {
			best, bestV = k, v
		}
	}
	return best
}
