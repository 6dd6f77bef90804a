package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/protocol"
	"bwcs/internal/textplot"
)

// Fig4Protocols returns the four protocol variants Figure 4 compares.
func Fig4Protocols() []protocol.Protocol {
	return []protocol.Protocol{
		protocol.NonInterruptible(1),
		protocol.Interruptible(1),
		protocol.Interruptible(2),
		protocol.Interruptible(3),
	}
}

// Fig4Result reproduces Figure 4: for each protocol, the cumulative
// fraction of trees whose onset of optimal steady state falls within x
// completed tasks. The populations also back Table 1 and Figure 6, which
// reuse the same runs.
type Fig4Result struct {
	Options     Options
	Populations []Population
}

// Fig4 runs the four protocol variants over the tree population.
func Fig4(o Options) (*Fig4Result, error) {
	pops, err := RunPopulation(o, Fig4Protocols())
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Options: o, Populations: pops}, nil
}

// Render writes the CDF chart and the headline reached-fractions.
func (r *Fig4Result) Render(w io.Writer) error {
	xs := gridInt64(int(r.Options.Tasks)/2, 60)
	chart := textplot.NewChart("Figure 4: trees at optimal steady state within x tasks (CDF)", 72, 18).
		Labels("onset window (tasks completed)", "fraction of trees")
	for i := range r.Populations {
		p := &r.Populations[i]
		chart.Line(p.Protocol.Label, toFloats(xs), p.Agg.OnsetCDF(xs))
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-16s %10s %14s     (paper: non-IC 20.18%%, IC1 81.9%%, IC2 98.51%%, IC3 99.57%%)\n",
		"protocol", "reached", "median onset")
	for i := range r.Populations {
		p := &r.Populations[i]
		fmt.Fprintf(w, "%-16s %9.2f%% %14d\n", p.Protocol.Label, 100*p.Agg.ReachedFraction(), p.Agg.MedianOnset())
	}
	fmt.Fprintf(w, "\n%d trees, %d tasks, onset threshold window %d\n", r.Options.Trees, r.Options.Tasks, r.Options.Threshold)
	return nil
}
