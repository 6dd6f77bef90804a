package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/protocol"
	"bwcs/internal/textplot"
)

// Fig5Class is one computation-to-communication class of Figure 5: the
// onset CDFs of non-IC IB=1 and IC FB=3 on trees generated with
// computation parameter X.
type Fig5Class struct {
	X           int64
	Populations []Population // non-IC IB=1 and IC FB=3, in that order
}

// Fig5Result reproduces Figure 5: the impact of the
// computation-to-communication ratio on both protocols. The paper uses
// 1000 trees per class and 4000 tasks.
type Fig5Result struct {
	Options Options
	Classes []Fig5Class
}

// Fig5 runs one sweep of non-IC IB=1 and IC FB=3 per x class.
func Fig5(o Options) (*Fig5Result, error) {
	out := &Fig5Result{Options: o}
	for _, x := range CompClasses {
		co := o
		co.Params = o.Params.WithComp(x)
		pops, err := RunPopulation(co, []protocol.Protocol{protocol.NonInterruptible(1), protocol.Interruptible(3)})
		if err != nil {
			return nil, fmt.Errorf("fig5 x=%d: %w", x, err)
		}
		out.Classes = append(out.Classes, Fig5Class{X: x, Populations: pops})
	}
	return out, nil
}

// Render writes the CDF chart (all classes and protocols) and the summary
// table of reached fractions per class.
func (r *Fig5Result) Render(w io.Writer) error {
	xs := gridInt64(int(r.Options.Tasks)/2, 50)
	chart := textplot.NewChart("Figure 5: onset CDF across computation-to-communication classes", 72, 18).
		Labels("onset window (tasks completed)", "fraction of trees")
	for _, cls := range r.Classes {
		for i := range cls.Populations {
			p := &cls.Populations[i]
			chart.Line(fmt.Sprintf("%s x=%d", p.Protocol.Label, cls.X), toFloats(xs), p.Agg.OnsetCDF(xs))
		}
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-8s", "x")
	for i := range r.Classes[0].Populations {
		fmt.Fprintf(w, " %16s", r.Classes[0].Populations[i].Protocol.Label)
	}
	fmt.Fprintln(w)
	for _, cls := range r.Classes {
		fmt.Fprintf(w, "%-8d", cls.X)
		for i := range cls.Populations {
			fmt.Fprintf(w, " %15.2f%%", 100*cls.Populations[i].Agg.ReachedFraction())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\npaper shape: IC FB=3 high across all classes; non-IC degrades sharply as x grows\n")
	fmt.Fprintf(w, "%d trees per class, %d tasks, threshold window %d\n", r.Options.Trees, r.Options.Tasks, r.Options.Threshold)
	return nil
}
