package trace_test

// Trace-vs-metrics conformance: the engine maintains cheap inline
// counters (engine.Result.Metrics) and, independently, reports every
// action to an attached Tracer. For the same run the two layers must
// agree exactly — every action counter equals the count of the
// corresponding recorded event kind. A drift between them means one of
// the instrumentation paths lost an action.

import (
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/trace"
)

// assertConformance runs one config with a recorder attached and checks
// every counter against the trace.
func assertConformance(t *testing.T, cfg engine.Config, label string) {
	t.Helper()
	rec := &trace.Recorder{}
	cfg.Tracer = rec.Add
	res, err := engine.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	counts := kindCounts(rec)
	m := res.Metrics
	checks := []struct {
		name    string
		counter int64
		kind    trace.Kind
	}{
		{"SendsStarted", m.SendsStarted, trace.SendStart},
		{"SendsResumed", m.SendsResumed, trace.SendResume},
		{"SendsInterrupted", m.SendsInterrupted, trace.SendInterrupt},
		{"SendsCompleted", m.SendsCompleted, trace.SendDone},
		{"ComputesStarted", m.ComputesStarted, trace.ComputeStart},
		{"ComputesDone", m.ComputesDone, trace.ComputeDone},
		{"Requests", m.Requests, trace.Request},
		{"Grows", m.Grows, trace.Grow},
	}
	for _, c := range checks {
		if c.counter != int64(counts[c.kind]) {
			t.Errorf("%s: Metrics.%s = %d, trace has %d %v events",
				label, c.name, c.counter, counts[c.kind], c.kind)
		}
	}
	// Cross-layer sanity beyond raw counts: every task computed exactly
	// once, and every started or resumed send either completed or was
	// interrupted (transfers in a finished run cannot dangle).
	if m.ComputesDone != cfg.Tasks {
		t.Errorf("%s: %d computes for %d tasks", label, m.ComputesDone, cfg.Tasks)
	}
	if m.SendsStarted+m.SendsResumed != m.SendsCompleted+m.SendsInterrupted {
		t.Errorf("%s: sends unbalanced: started %d + resumed %d != completed %d + interrupted %d",
			label, m.SendsStarted, m.SendsResumed, m.SendsCompleted, m.SendsInterrupted)
	}
	if m.Events != res.Steps {
		t.Errorf("%s: Metrics.Events = %d, Result.Steps = %d", label, m.Events, res.Steps)
	}
}

// TestMetricsMatchTrace checks conformance for a fixed seed population
// under both headline protocols: IC FB=3 (exercises interrupts and
// resumes) and non-IC (exercises growth).
func TestMetricsMatchTrace(t *testing.T) {
	params := randtree.Params{MinNodes: 8, MaxNodes: 60, MinComm: 1, MaxComm: 40, Comp: 800}
	for ti := 0; ti < 4; ti++ {
		tr := randtree.TreeAt(params, 777, ti)
		assertConformance(t, engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 500},
			"IC3")
		assertConformance(t, engine.Config{Tree: tr, Protocol: protocol.NonInterruptible(1), Tasks: 500},
			"non-IC")
		assertConformance(t, engine.Config{Tree: tr, Protocol: protocol.NonInterruptible(1).WithDecay(), Tasks: 500},
			"non-IC decay")
	}
}

// TestMetricsInterruptsExercised guards the fixture: at least one IC run
// above must actually interrupt and resume, otherwise the conformance
// test silently stops covering the preemption counters.
func TestMetricsInterruptsExercised(t *testing.T) {
	params := randtree.Params{MinNodes: 8, MaxNodes: 60, MinComm: 1, MaxComm: 40, Comp: 800}
	var interrupted, resumed int64
	for ti := 0; ti < 4; ti++ {
		tr := randtree.TreeAt(params, 777, ti)
		res, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 500})
		if err != nil {
			t.Fatal(err)
		}
		interrupted += res.Metrics.SendsInterrupted
		resumed += res.Metrics.SendsResumed
	}
	if interrupted == 0 || resumed == 0 {
		t.Fatalf("fixture exercises no preemption (interrupted=%d resumed=%d); grow the population",
			interrupted, resumed)
	}
}
