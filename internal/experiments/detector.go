package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/protocol"
	"bwcs/internal/steady"
)

// DetectorResult evaluates the paper's empirical onset heuristic against
// the exact periodicity detector (internal/steady) on the same runs: the
// paper admits its window-300 double-crossing rule "is purely empirical"
// and leaves "more theoretically-justified decision criteria" to future
// work — this experiment quantifies how often the heuristic agrees with
// an exact criterion.
type DetectorResult struct {
	Options Options
	// Agreement matrix over the population, under IC FB=3:
	// counts[heuristic][exact] with heuristic ∈ {reached, not} and exact ∈
	// {optimal, suboptimal/none}.
	BothOptimal        int // heuristic reached, periodic rate == optimal
	HeuristicOnly      int // heuristic reached, exact says otherwise
	ExactOnly          int // heuristic missed, exact proves optimal
	NeitherOptimal     int
	NoPeriodicityFound int // exact detector found no steady interval at all
}

// Detector runs the comparison: one IC FB=3 sweep whose measure runs the
// exact detector on each run's completions and weight, beside the
// heuristic's verdict in the run's outcome.
func Detector(o Options) (*DetectorResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	exact := make([]steady.Class, o.Trees)
	pops, err := sweep{
		protos: []protocol.Protocol{protocol.Interruptible(3)},
		measure: func(_ int, oc TreeOutcome, ev *Evaluator) error {
			exact[oc.Index] = steady.Detect(ev.res.Completions, steady.Options{}).Classify(ev.weight)
			if exact[oc.Index] == steady.Anomalous {
				return fmt.Errorf("detector: tree %d steady rate above optimal (model bug)", oc.Index)
			}
			return nil
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	out := &DetectorResult{Options: o}
	for i, oc := range pops[0].Outcomes {
		exactOptimal := exact[i] == steady.Optimal
		switch {
		case oc.Reached && exactOptimal:
			out.BothOptimal++
		case oc.Reached && !exactOptimal:
			out.HeuristicOnly++
		case !oc.Reached && exactOptimal:
			out.ExactOnly++
		default:
			out.NeitherOptimal++
		}
		if exact[i] == steady.NoSteadyState {
			out.NoPeriodicityFound++
		}
	}
	return out, nil
}

// Agreement returns the fraction of trees where both detectors agree.
func (r *DetectorResult) Agreement() float64 {
	total := r.BothOptimal + r.HeuristicOnly + r.ExactOnly + r.NeitherOptimal
	if total == 0 {
		return 0
	}
	return float64(r.BothOptimal+r.NeitherOptimal) / float64(total)
}

// Render writes the agreement matrix.
func (r *DetectorResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Detector study: paper's window heuristic vs exact periodicity detection (IC FB=3)")
	fmt.Fprintf(w, "%-32s %10s\n", "", "trees")
	fmt.Fprintf(w, "%-32s %10d\n", "both say optimal", r.BothOptimal)
	fmt.Fprintf(w, "%-32s %10d\n", "heuristic only (likely wiggle)", r.HeuristicOnly)
	fmt.Fprintf(w, "%-32s %10d\n", "exact only (heuristic missed)", r.ExactOnly)
	fmt.Fprintf(w, "%-32s %10d\n", "neither", r.NeitherOptimal)
	fmt.Fprintf(w, "%-32s %10d\n", "no periodic interval found", r.NoPeriodicityFound)
	fmt.Fprintf(w, "\nagreement: %.2f%% over %d trees, %d tasks\n", 100*r.Agreement(), r.Options.Trees, r.Options.Tasks)
	fmt.Fprintln(w, "reading the matrix: on large heterogeneous platforms exact periodicity rarely")
	fmt.Fprintln(w, "materialises within practical horizons — the steady-state period is bounded only")
	fmt.Fprintln(w, "by (roughly) the LCM of all weights, which the paper itself calls impractically")
	fmt.Fprintln(w, "large. A high 'heuristic only' row therefore vindicates the paper's empirical")
	fmt.Fprintln(w, "window criterion for such populations; the exact detector is the right tool for")
	fmt.Fprintln(w, "small or regular platforms, where the heuristic fails instead (exactly-periodic")
	fmt.Fprintln(w, "runs never go strictly above the optimal rate).")
	return nil
}
