package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
)

// tinyOptions returns a fast configuration for tests: few trees, short
// applications, a low onset threshold, and small platforms.
func tinyOptions() Options {
	return Options{
		Trees:     12,
		Tasks:     400,
		Threshold: 50,
		Seed:      7,
		Params:    randtree.Params{MinNodes: 5, MaxNodes: 60, MinComm: 1, MaxComm: 40, Comp: 2000},
		Workers:   2,
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	if err := Paper().Validate(); err != nil {
		t.Fatalf("Paper invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"no trees", func(o *Options) { o.Trees = 0 }},
		{"one task", func(o *Options) { o.Tasks = 1 }},
		{"negative threshold", func(o *Options) { o.Threshold = -1 }},
		{"negative workers", func(o *Options) { o.Workers = -1 }},
		{"bad params", func(o *Options) { o.Params.MinComm = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Default()
			tc.mutate(&o)
			if o.Validate() == nil {
				t.Fatalf("invalid options accepted")
			}
		})
	}
}

func TestExampleTree(t *testing.T) {
	tr := ExampleTree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("example tree invalid: %v", err)
	}
	if tr.Len() != 8 {
		t.Fatalf("example tree has %d nodes, want 8", tr.Len())
	}
	// The adaptability text requires c1=1 and w1=3 at P1.
	if tr.C(P1) != 1 || tr.W(P1) != 3 {
		t.Fatalf("P1 weights (c=%d, w=%d), want (1, 3)", tr.C(P1), tr.W(P1))
	}
	if tr.MaxDepth() != 2 {
		t.Fatalf("depth %d, want 2", tr.MaxDepth())
	}
}

func TestEvaluateTreeDeterministic(t *testing.T) {
	o := tinyOptions()
	a, _, err := NewEvaluator().EvaluateTree(o, protocol.Interruptible(3), 4)
	if err != nil {
		t.Fatalf("EvaluateTree: %v", err)
	}
	b, _, err := NewEvaluator().EvaluateTree(o, protocol.Interruptible(3), 4)
	if err != nil {
		t.Fatalf("EvaluateTree: %v", err)
	}
	if a != b {
		t.Fatalf("outcomes differ: %+v vs %+v", a, b)
	}
	if a.Nodes < o.Params.MinNodes || a.Nodes > o.Params.MaxNodes {
		t.Fatalf("node count %d outside generator bounds", a.Nodes)
	}
	if a.UsedNodes > a.Nodes || a.UsedDepth > a.Depth {
		t.Fatalf("used subtree exceeds tree: %+v", a)
	}
	if a.UsedNodes < 1 {
		t.Fatalf("nothing computed")
	}
}

func TestRunPopulationParallelMatchesSerial(t *testing.T) {
	o := tinyOptions()
	serial := o
	serial.Workers = 1
	protos := []protocol.Protocol{protocol.Interruptible(2)}
	a, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	b, err := RunPopulation(serial, protos)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for i := range a[0].Outcomes {
		if a[0].Outcomes[i] != b[0].Outcomes[i] {
			t.Fatalf("tree %d differs between parallel and serial runs", i)
		}
	}
}

func TestRunPopulationRejectsBadInput(t *testing.T) {
	if _, err := RunPopulation(tinyOptions(), nil); err == nil {
		t.Fatalf("no protocols accepted")
	}
	bad := tinyOptions()
	bad.Trees = 0
	if _, err := RunPopulation(bad, []protocol.Protocol{protocol.Interruptible(1)}); err == nil {
		t.Fatalf("bad options accepted")
	}
	if _, err := RunPopulation(tinyOptions(), []protocol.Protocol{{}}); err == nil {
		t.Fatalf("bad protocol accepted")
	}
}

func TestPopulationHelpers(t *testing.T) {
	empty := NewPopulationAgg()
	if empty.ReachedFraction() != 0 || empty.MedianOnset() != 0 || empty.ReachedWithAtMostBuffers(1) != 0 ||
		!slices.Equal(empty.OnsetCDF([]int64{1, 2}), []float64{0, 0}) {
		t.Fatalf("empty aggregate not zero")
	}
	a := NewPopulationAgg()
	for _, oc := range []TreeOutcome{
		{Reached: true, Onset: 100, MaxNodeUsed: 2},
		{Reached: true, Onset: 300, MaxNodeUsed: 9},
		{Reached: false, MaxNodeUsed: 50},
		{Reached: true, Onset: 150, MaxNodeUsed: 1},
	} {
		a.Observe(oc)
	}
	if got := a.ReachedFraction(); got != 0.75 {
		t.Fatalf("ReachedFraction = %v", got)
	}
	if got := a.ReachedWithAtMostBuffers(2); got != 0.5 {
		t.Fatalf("ReachedWithAtMostBuffers(2) = %v", got)
	}
	if got := a.MedianOnset(); got != 150 {
		t.Fatalf("MedianOnset = %d", got)
	}
	if cdf, want := a.OnsetCDF([]int64{100, 200, 400}), []float64{0.25, 0.5, 0.75}; !slices.Equal(cdf, want) {
		t.Fatalf("OnsetCDF = %v, want %v", cdf, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("descending CDF points accepted")
		}
	}()
	a.OnsetCDF([]int64{5, 1})
}

func TestFig4AndDerivedTables(t *testing.T) {
	o := tinyOptions()
	f4, err := Fig4(o)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if len(f4.Populations) != 4 {
		t.Fatalf("populations = %d, want 4", len(f4.Populations))
	}
	// The paper's core result: IC FB=3 does at least as well as non-IC
	// IB=1. (FB=3 vs FB=1 ordering needs long horizons — FB=1 has shorter
	// startup, so tiny runs can flip it; the long-horizon ordering is
	// asserted by the full-scale harness in EXPERIMENTS.md.)
	frac := map[string]float64{}
	for i := range f4.Populations {
		p := &f4.Populations[i]
		frac[p.Protocol.Label] = p.Agg.ReachedFraction()
	}
	if frac["IC FB=3"] < frac["non-IC IB=1"] {
		t.Fatalf("IC3 %.2f < non-IC %.2f", frac["IC FB=3"], frac["non-IC IB=1"])
	}

	var buf strings.Builder
	if err := f4.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 4") || !strings.Contains(buf.String(), "IC FB=3") {
		t.Fatalf("render missing content:\n%s", buf.String())
	}

	t1, err := Table1(f4)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(t1.NonIC) != len(Table1Buckets) || len(t1.IC) != 3 {
		t.Fatalf("table1 sizes wrong: %+v", t1)
	}
	// Non-IC column is monotone in the buffer budget.
	for i := 1; i < len(t1.NonIC); i++ {
		if t1.NonIC[i] < t1.NonIC[i-1] {
			t.Fatalf("table1 non-IC not monotone: %v", t1.NonIC)
		}
	}
	buf.Reset()
	if err := t1.Render(&buf); err != nil {
		t.Fatalf("Table1 render: %v", err)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatalf("table1 render missing title")
	}

	f6, err := Fig6(f4)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if f6.AllSize.Total != int64(o.Trees) {
		t.Fatalf("fig6 histogram total %d, want %d", f6.AllSize.Total, o.Trees)
	}
	buf.Reset()
	if err := f6.Render(&buf); err != nil {
		t.Fatalf("Fig6 render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 6(a)") || !strings.Contains(buf.String(), "Figure 6(b)") {
		t.Fatalf("fig6 render missing charts")
	}
}

func TestTable1RequiresNonIC(t *testing.T) {
	f4 := &Fig4Result{Populations: []Population{{Protocol: protocol.Interruptible(1)}}}
	if _, err := Table1(f4); err == nil {
		t.Fatalf("Table1 accepted missing non-IC population")
	}
}

func TestFig6RequiresBothProtocols(t *testing.T) {
	f4 := &Fig4Result{Populations: []Population{{Protocol: protocol.Interruptible(3)}}}
	if _, err := Fig6(f4); err == nil {
		t.Fatalf("Fig6 accepted missing populations")
	}
}

func TestFig3FindsExemplars(t *testing.T) {
	o := tinyOptions()
	o.Trees = 40
	r, err := Fig3(o)
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if len(r.Exemplars) == 0 {
		t.Fatalf("no exemplars")
	}
	for _, ex := range r.Exemplars {
		if len(ex.Normalized) != int(o.Tasks)/2 {
			t.Fatalf("exemplar series length %d, want %d", len(ex.Normalized), o.Tasks/2)
		}
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 3(a)") {
		t.Fatalf("render missing startup chart")
	}
}

func TestFig5Shape(t *testing.T) {
	o := tinyOptions()
	o.Trees = 8
	r, err := Fig5(o)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(r.Classes) != len(CompClasses) {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	for _, cls := range r.Classes {
		if len(cls.Populations) != 2 {
			t.Fatalf("x=%d populations = %d", cls.X, len(cls.Populations))
		}
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatalf("render missing title")
	}
}

func TestTable2BufferGrowthRisesWithX(t *testing.T) {
	o := tinyOptions()
	o.Trees = 10
	o.Tasks = 400
	r, err := Table2(o)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(r.Classes) != len(CompClasses) {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	// Shape: the highest-ratio class uses at least as many buffers as the
	// lowest at the final checkpoint.
	lo := r.Classes[0]
	hi := r.Classes[len(r.Classes)-1]
	if hi.MedianAt[len(hi.MedianAt)-1] < lo.MedianAt[len(lo.MedianAt)-1] {
		t.Fatalf("buffer growth did not rise with x: lo=%v hi=%v", lo.MedianAt, hi.MedianAt)
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatalf("render missing title")
	}
}

func TestTable2RejectsTinyTasks(t *testing.T) {
	o := tinyOptions()
	o.Tasks = 50 // below the first checkpoint
	if _, err := Table2(o); err == nil {
		t.Fatalf("Table2 accepted task count below first checkpoint")
	}
}

func TestFig7Adaptability(t *testing.T) {
	r, err := Fig7(600, 150)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(r.Scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(r.Scenarios))
	}
	base, slower, faster := r.Scenarios[0], r.Scenarios[1], r.Scenarios[2]
	// Baseline optimal unchanged; contention lowers it; a faster CPU
	// cannot lower it.
	if !base.OptimalBefore.Equal(base.OptimalAfter) {
		t.Fatalf("baseline optimal changed")
	}
	if slower.OptimalAfter.Cmp(slower.OptimalBefore) >= 0 {
		t.Fatalf("raising c1 did not lower the optimal rate")
	}
	if faster.OptimalAfter.Cmp(faster.OptimalBefore) < 0 {
		t.Fatalf("lowering w1 lowered the optimal rate")
	}
	// The protocol adapts: each scenario settles onto an exact period after
	// the mutation, at its own post-mutation optimum when that is reached
	// with two fixed buffers, and never above it.
	for _, sc := range r.Scenarios {
		if !sc.Tail.Found || sc.Tail.Rate.Cmp(sc.OptimalAfter) > 0 {
			t.Fatalf("%s: tail %v against optimal %v", sc.Name, sc.Tail, sc.OptimalAfter)
		}
	}
	if !base.Tail.Rate.Equal(base.OptimalAfter) || !faster.Tail.Rate.Equal(faster.OptimalAfter) {
		t.Fatalf("baseline tail %v or w1=1 tail %v below its optimum", base.Tail.Rate, faster.Tail.Rate)
	}
	// Slower communication must slow the whole run relative to baseline.
	if slower.Completions[len(slower.Completions)-1] <= base.Completions[len(base.Completions)-1] {
		t.Fatalf("contention scenario not slower than baseline")
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Fatalf("render missing title")
	}
	// The labels name the mutation point the run used.
	if got := slower.Name + "|" + faster.Name; got != "at 150 tasks, c1=3|at 150 tasks, w1=1" {
		t.Fatalf("scenario labels %q do not name the mutation after 150 tasks", got)
	}
}

func TestFig7RejectsLateMutation(t *testing.T) {
	if _, err := Fig7(100, 100); err == nil {
		t.Fatalf("accepted mutation at task count >= tasks")
	}
}

func TestAblationPolicy(t *testing.T) {
	o := tinyOptions()
	o.Trees = 8
	r, err := AblationPolicy(o)
	if err != nil {
		t.Fatalf("AblationPolicy: %v", err)
	}
	if len(r.Populations) != 5 {
		t.Fatalf("populations = %d", len(r.Populations))
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "bandwidth-centric") {
		t.Fatalf("render missing policies")
	}
}

func TestAblationInterrupt(t *testing.T) {
	o := tinyOptions()
	o.Trees = 8
	r, err := AblationInterrupt(o)
	if err != nil {
		t.Fatalf("AblationInterrupt: %v", err)
	}
	if len(r.Buffers) != 3 {
		t.Fatalf("buffers = %v", r.Buffers)
	}
	// Interruption never hurts at equal buffers on aggregate populations.
	for i := range r.Buffers {
		if r.IC[i]+1e-9 < r.NonIC[i] {
			t.Fatalf("FB=%d: IC %.3f below non-IC %.3f", r.Buffers[i], r.IC[i], r.NonIC[i])
		}
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestParallelForErrorPropagates(t *testing.T) {
	o := tinyOptions()
	o.Params.Comp = 1 // still valid
	err := parallelFor(100, 4, func(_, i int) error {
		if i == 37 {
			return errTest
		}
		return nil
	})
	if !errors.Is(err, errTest) {
		t.Fatalf("err = %v, want wrapped errTest", err)
	}
	if !strings.Contains(err.Error(), "index 37") {
		t.Fatalf("err = %v, want the failing index in the message", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

// TestOptimalRateIsUpperBound cross-checks engine against theorem: no
// protocol ever sustains a windowed rate above the optimal rate over the
// long run (the last window of a long-enough run).
func TestOptimalRateIsUpperBound(t *testing.T) {
	o := tinyOptions()
	for i := 0; i < 6; i++ {
		tr := randtree.TreeAt(o.Params, o.Seed, i)
		opt := optimal.Compute(tr)
		oc, res, err := NewEvaluator().EvaluateTree(o, protocol.Interruptible(3), i)
		if err != nil {
			t.Fatalf("EvaluateTree: %v", err)
		}
		_ = oc
		// Whole-run rate cannot beat the optimal steady-state rate by more
		// than the startup transient allows: tasks / makespan <= rate
		// within 1%.
		whole := float64(o.Tasks) / float64(res.Makespan)
		if whole > opt.Rate.Float64()*1.01 {
			t.Fatalf("tree %d: whole-run rate %.5f exceeds optimal %.5f", i, whole, opt.Rate.Float64())
		}
	}
}
