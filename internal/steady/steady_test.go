package steady

import (
	"strings"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/tree"
)

func times(deltas ...sim.Time) []sim.Time {
	out := make([]sim.Time, len(deltas))
	var t sim.Time
	for i, d := range deltas {
		t += d
		out[i] = t
	}
	return out
}

func repeat(pattern []sim.Time, n int) []sim.Time {
	var deltas []sim.Time
	for i := 0; i < n; i++ {
		deltas = append(deltas, pattern...)
	}
	return times(deltas...)
}

func TestUniformStreamIsBatchOne(t *testing.T) {
	d := Detect(repeat([]sim.Time{5}, 100))
	if !d.Found || d.Batch != 1 || d.Period != 5 {
		t.Fatalf("detection = %+v", d)
	}
	if !d.Rate.Equal(rational.New(1, 5)) {
		t.Fatalf("rate = %v", d.Rate)
	}
	if d.Start != 1 || d.End != 100 {
		t.Fatalf("interval = %d..%d", d.Start, d.End)
	}
}

func TestAlternatingDeltasNeedBatchTwo(t *testing.T) {
	// Deltas 3,5,3,5...: t[k+1]-t[k] is not constant but t[k+2]-t[k] = 8.
	d := Detect(repeat([]sim.Time{3, 5}, 60))
	if !d.Found || d.Batch != 2 || d.Period != 8 {
		t.Fatalf("detection = %+v", d)
	}
	if !d.Rate.Equal(rational.New(1, 4)) {
		t.Fatalf("rate = %v", d.Rate)
	}
}

func TestStartupExcluded(t *testing.T) {
	// Irregular startup, then strictly periodic.
	startup := []sim.Time{17, 2, 9, 31, 4}
	var deltas []sim.Time
	deltas = append(deltas, startup...)
	for i := 0; i < 100; i++ {
		deltas = append(deltas, 7)
	}
	d := Detect(times(deltas...))
	if !d.Found || d.Batch != 1 || d.Period != 7 {
		t.Fatalf("detection = %+v", d)
	}
	if d.Start <= len(startup)-1 {
		t.Fatalf("steady interval claims the startup: start %d", d.Start)
	}
}

func TestWindDownExcluded(t *testing.T) {
	var deltas []sim.Time
	for i := 0; i < 100; i++ {
		deltas = append(deltas, 7)
	}
	deltas = append(deltas, 19, 44, 3) // wind-down stragglers
	d := Detect(times(deltas...))
	if !d.Found || d.Period != 7 {
		t.Fatalf("detection = %+v", d)
	}
	if d.End > 101 {
		t.Fatalf("steady interval claims the wind-down: end %d", d.End)
	}
}

func TestNoPeriodicity(t *testing.T) {
	// Strictly growing deltas never repeat.
	var deltas []sim.Time
	for i := 1; i <= 60; i++ {
		deltas = append(deltas, sim.Time(i))
	}
	d := Detect(times(deltas...))
	if d.Found {
		t.Fatalf("detected phantom steady state: %+v", d)
	}
	if d.Classify(rational.One()) != NoSteadyState {
		t.Fatalf("classify = %v", d.Classify(rational.One()))
	}
}

func TestTooShortStream(t *testing.T) {
	if d := Detect(times(1, 1, 1)); d.Found {
		t.Fatalf("found steady state in 3 samples")
	}
}

// TestMinRunRespected: a periodic stretch must cover max(4b, n/8) tasks.
// Here 10 equal deltas among 130 tasks cover 11, under the 16 required.
func TestMinRunRespected(t *testing.T) {
	var deltas []sim.Time
	for i := 1; i <= 120; i++ {
		deltas = append(deltas, sim.Time(i))
		if i == 60 {
			deltas = append(deltas, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000)
		}
	}
	if d := Detect(times(deltas...)); d.Found {
		t.Fatalf("short run accepted: %+v", d)
	}
}

func TestClassify(t *testing.T) {
	d := Detection{Found: true, Rate: rational.New(1, 4)}
	// Optimal weight 4 => optimal rate 1/4.
	if got := d.Classify(rational.FromInt(4)); got != Optimal {
		t.Fatalf("Classify = %v, want optimal", got)
	}
	if got := d.Classify(rational.FromInt(3)); got != Suboptimal {
		t.Fatalf("Classify = %v, want suboptimal", got)
	}
	if got := d.Classify(rational.FromInt(5)); got != Anomalous {
		t.Fatalf("Classify = %v, want anomalous", got)
	}
	for c, want := range map[Class]string{
		NoSteadyState: "no-steady-state", Suboptimal: "suboptimal",
		Optimal: "optimal", Anomalous: "anomalous",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", int(c), c.String())
		}
	}
	if !strings.Contains(Class(9).String(), "9") {
		t.Fatalf("unknown class string")
	}
}

func TestDetectionString(t *testing.T) {
	if got := (Detection{}).String(); !strings.Contains(got, "no steady state") {
		t.Fatalf("String = %q", got)
	}
	d := Detection{Found: true, Batch: 2, Period: 8, Rate: rational.New(1, 4), Start: 5, End: 100}
	if got := d.String(); !strings.Contains(got, "2 tasks per 8") {
		t.Fatalf("String = %q", got)
	}
}

// TestEngineRunsReachExactOptimalSteadyState is the payoff: on platforms
// the protocol handles perfectly, the detected periodic rate equals the
// theorem's optimal rate exactly — no threshold, no tolerance.
func TestEngineRunsReachExactOptimalSteadyState(t *testing.T) {
	platforms := []func() *tree.Tree{
		func() *tree.Tree { // simple saturated fork
			tr := tree.New(10)
			tr.AddChild(tr.Root(), 5, 1)
			tr.AddChild(tr.Root(), 2, 8)
			return tr
		},
		func() *tree.Tree { // chain
			tr := tree.New(6)
			a := tr.AddChild(tr.Root(), 4, 2)
			tr.AddChild(a, 4, 2)
			return tr
		},
	}
	for i, build := range platforms {
		tr := build()
		res, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 3000})
		if err != nil {
			t.Fatalf("platform %d: %v", i, err)
		}
		opt := optimal.Compute(tr)
		d := Detect(res.Completions)
		if !d.Found {
			t.Fatalf("platform %d: no steady state found", i)
		}
		if got := d.Classify(opt.TreeWeight); got != Optimal {
			t.Fatalf("platform %d: class %v, detected rate %v vs optimal %v", i, got, d.Rate, opt.Rate)
		}
	}
}

// TestRandomTreesNeverAnomalous cross-validates engine and theorem: no
// detected steady rate may exceed the optimal rate.
func TestRandomTreesNeverAnomalous(t *testing.T) {
	params := randtree.Params{MinNodes: 5, MaxNodes: 60, MinComm: 1, MaxComm: 40, Comp: 1000}
	for i := 0; i < 15; i++ {
		tr := randtree.TreeAt(params, 99, i)
		res, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 2000})
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		d := Detect(res.Completions)
		if d.Classify(optimal.Compute(tr).TreeWeight) == Anomalous {
			t.Fatalf("tree %d: detected rate %v above optimal", i, d.Rate)
		}
	}
}
