package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/stats"
)

// Table1Buckets are the buffer budgets the paper's Table 1 reports.
var Table1Buckets = []int64{1, 2, 3, 10, 20, 100}

// Table1Result reproduces Table 1: the percentage of trees that reached
// the optimal steady-state rate using at most n buffers per node.
//
// The two rows are measured differently, as in the paper: the non-IC row
// filters one growth-protocol population by observed per-node buffer
// high-water; the IC row runs separate fixed-buffer populations (FB = n
// for n in 1..3; larger budgets change nothing because the IC protocol
// never uses them).
type Table1Result struct {
	Options Options
	// NonIC[i] is the fraction of trees that reached optimal while never
	// needing more than Table1Buckets[i] queued tasks at any node, under
	// non-IC IB=1.
	NonIC []float64
	// IC[n] is the fraction reached under IC FB=n+1 for n in 0..2.
	IC []float64
}

// Table1 derives the table from Figure 4's populations (the same runs).
func Table1(f4 *Fig4Result) (*Table1Result, error) {
	out := &Table1Result{Options: f4.Options}
	var nonIC *Population
	icByFB := map[int]*Population{}
	for i := range f4.Populations {
		p := &f4.Populations[i]
		switch {
		case !p.Protocol.Interruptible && p.Protocol.Grow:
			nonIC = p
		case p.Protocol.Interruptible:
			icByFB[p.Protocol.InitialBuffers] = p
		}
	}
	if nonIC == nil {
		return nil, fmt.Errorf("table1: figure 4 result lacks the non-IC population")
	}
	for _, n := range Table1Buckets {
		out.NonIC = append(out.NonIC, nonIC.Agg.ReachedWithAtMostBuffers(n))
	}
	for fb := 1; fb <= 3; fb++ {
		p, ok := icByFB[fb]
		if !ok {
			return nil, fmt.Errorf("table1: figure 4 result lacks IC FB=%d", fb)
		}
		out.IC = append(out.IC, p.Agg.ReachedFraction())
	}
	return out, nil
}

// Render writes the table in the paper's layout.
func (r *Table1Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: % of trees that reached the optimal steady-state rate using at most n buffers")
	fmt.Fprintf(w, "%-10s", "protocol")
	for _, n := range Table1Buckets {
		fmt.Fprintf(w, " %8d", n)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "non-IC")
	for _, v := range r.NonIC {
		fmt.Fprintf(w, " %7.2f%%", 100*v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "IC")
	for _, v := range r.IC {
		fmt.Fprintf(w, " %7.2f%%", 100*v)
	}
	fmt.Fprintf(w, "      (FB=1..3; unchanged beyond 3)\n")
	fmt.Fprintln(w, "paper:   non-IC ... 0.0 0.0 0.2 0.8 5.1 (n=2,3,10,20,100); IC 81.9 98.5 99.6 (n=1,2,3)")
	return nil
}

// Table2Checkpoints are the completed-task counts at which Table 2
// snapshots buffer usage.
var Table2Checkpoints = []int64{100, 1000, 4000}

// Table2Class is one row of Table 2: the non-IC protocol's buffer usage on
// the tree class with computation parameter X.
type Table2Class struct {
	X int64
	// MedianAt[i] is the median (across trees) of the per-tree maximum
	// buffers any node had actually used (queued-tasks high-water) when
	// Table2Checkpoints[i] tasks had completed.
	MedianAt []int64
	// Max is the largest per-tree maximum observed at the final
	// checkpoint.
	Max int64
}

// Table2Result reproduces Table 2: median and maximum buffers used by
// non-IC IB=1 across tree classes with x in {500, 1000, 5000, 10000}.
type Table2Result struct {
	Options Options
	Classes []Table2Class
}

// CompClasses are the computation-parameter sweep of Figure 5 and
// Table 2.
var CompClasses = []int64{500, 1000, 5000, 10000}

// Table2 runs one sweep per class: non-IC IB=1 with the checkpoints that
// fit in o.Tasks, which should be at least the last one (the paper uses
// 4000).
func Table2(o Options) (*Table2Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	checkpoints := make([]int64, 0, len(Table2Checkpoints))
	for _, c := range Table2Checkpoints {
		if c <= o.Tasks {
			checkpoints = append(checkpoints, c)
		}
	}
	if len(checkpoints) == 0 {
		return nil, fmt.Errorf("table2: task count %d below first checkpoint %d", o.Tasks, Table2Checkpoints[0])
	}
	out := &Table2Result{Options: o}
	for _, x := range CompClasses {
		co := o
		co.Params = o.Params.WithComp(x)
		maxAt := make([][]int64, len(checkpoints)) // per checkpoint: per-tree max-node-buffers
		for i := range maxAt {
			maxAt[i] = make([]int64, co.Trees)
		}
		pops, err := sweep{
			protos: []protocol.Protocol{protocol.NonInterruptible(1)},
			edit:   func(_, _ int, cfg *engine.Config) { cfg.Checkpoints = checkpoints },
			measure: func(_ int, oc TreeOutcome, ev *Evaluator) error {
				for ci, ck := range ev.res.Checkpoints {
					maxAt[ci][oc.Index] = ck.MaxNodeUsed
				}
				return nil
			},
		}.run(co)
		if err != nil {
			return nil, err
		}
		cls := Table2Class{X: x, Max: pops[0].Agg.MaxNodeUsedMax}
		for ci := range checkpoints {
			cls.MedianAt = append(cls.MedianAt, stats.Median(maxAt[ci]))
		}
		out.Classes = append(out.Classes, cls)
	}
	return out, nil
}

// Render writes the table in the paper's layout.
func (r *Table2Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: median and maximum per-node buffers used by non-IC IB=1")
	fmt.Fprintf(w, "%-8s", "x")
	for _, c := range Table2Checkpoints {
		if c <= r.Options.Tasks {
			fmt.Fprintf(w, " med@%-6d", c)
		}
	}
	fmt.Fprintf(w, " %9s\n", "max")
	for _, cls := range r.Classes {
		fmt.Fprintf(w, "%-8d", cls.X)
		for _, m := range cls.MedianAt {
			fmt.Fprintf(w, " %9d", m)
		}
		fmt.Fprintf(w, " %9d\n", cls.Max)
	}
	fmt.Fprintln(w, "paper:  x=500: 3/3/3 max 165 · x=1000: 4/5/5 max 472 · x=5000: 150/212/218 max 1535 · x=10000: 551/560/561 max 1951")
	fmt.Fprintf(w, "%d trees per class, %d tasks\n", r.Options.Trees, r.Options.Tasks)
	return nil
}
