package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/protocol"

	"bwcs/internal/textplot"
)

// Fig3Exemplar is one of the three illustrative trees of Figure 3.
type Fig3Exemplar struct {
	Name  string
	Index int // tree index within the population
	// Normalized is the windowed rate normalized to the tree's optimal
	// steady-state rate; entry x-1 is window x (rate between completions
	// of tasks x and 2x).
	Normalized []float64
	Reached    bool
	Onset      int
}

// Fig3Result reproduces Figure 3: normalized sliding-growing-window
// throughput for three trees chosen to illustrate why onset detection is
// hard — one that spikes above optimal early yet settles just below
// (tree 1), one that stays well below optimal (tree 2), and one that
// climbs steadily and reaches it (tree 3).
type Fig3Result struct {
	Tasks     int64
	Exemplars []Fig3Exemplar
}

// Fig3 scans the population for the three behaviours and returns their
// full window series under IC FB=3.
func Fig3(o Options) (*Fig3Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	proto := protocol.Interruptible(3)
	out := &Fig3Result{Tasks: o.Tasks}

	var spiky, below, reached *Fig3Exemplar
	earlyCut := o.Threshold / 3
	if earlyCut < 10 {
		earlyCut = 10
	}
	// The scan is serial, so one Evaluator recycles its tree arena and
	// run state across every tree; the series built from res.Completions
	// is consumed (NormalizedSeries copies) before the next evaluation
	// invalidates it, and an exemplar keeps the tree's index, not the tree.
	eval := NewEvaluator()
	for i := 0; i < o.Trees && (spiky == nil || below == nil || reached == nil); i++ {
		oc, _, err := eval.EvaluateTree(o, proto, i)
		if err != nil {
			return nil, err
		}
		series := eval.series
		earlySpike := false
		for x := 1; x <= earlyCut && x <= series.Windows(); x++ {
			if series.AboveOptimal(x) {
				earlySpike = true
				break
			}
		}
		ex := Fig3Exemplar{Index: i, Normalized: series.NormalizedSeries(), Reached: oc.Reached, Onset: oc.Onset}
		switch {
		case !oc.Reached && earlySpike && spiky == nil:
			ex.Name = "tree 1 (early spikes, settles near optimal)"
			spiky = &ex
		case !oc.Reached && !earlySpike && below == nil:
			ex.Name = "tree 2 (well below optimal)"
			below = &ex
		case oc.Reached && reached == nil:
			ex.Name = "tree 3 (climbs to optimal)"
			reached = &ex
		}
	}
	for _, ex := range []*Fig3Exemplar{spiky, below, reached} {
		if ex != nil {
			out.Exemplars = append(out.Exemplars, *ex)
		}
	}
	if len(out.Exemplars) == 0 {
		return nil, fmt.Errorf("fig3: no exemplars found in %d trees", o.Trees)
	}
	return out, nil
}

// Render writes the startup view (Figure 3a) and the whole-run view
// (Figure 3b) plus a summary table.
func (r *Fig3Result) Render(w io.Writer) error {
	startup := textplot.NewChart("Figure 3(a): normalized windowed throughput — startup", 72, 16).
		Labels("window start (tasks completed)", "rate / optimal")
	full := textplot.NewChart("Figure 3(b): normalized windowed throughput — entire run", 72, 16).
		Labels("window start (tasks completed)", "rate / optimal")
	for _, ex := range r.Exemplars {
		n := len(ex.Normalized)
		cut := n / 5
		if cut < 1 {
			cut = n
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		startup.Line(ex.Name, xs[:cut], ex.Normalized[:cut])
		full.Line(ex.Name, xs, ex.Normalized)
	}
	if err := startup.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := full.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-45s %8s %8s %8s\n", "exemplar", "tree", "reached", "onset")
	for _, ex := range r.Exemplars {
		onset := "-"
		if ex.Reached {
			onset = fmt.Sprintf("%d", ex.Onset)
		}
		fmt.Fprintf(w, "%-45s %8d %8v %8s\n", ex.Name, ex.Index, ex.Reached, onset)
	}
	return nil
}
