package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/sim"
	"bwcs/internal/stats"
)

// The fairness study extends the paper's evaluation to the multi-tenant
// generalization: N applications with weights 1..N share one tree under
// weighted bandwidth-centric scheduling (IC(3), the paper's best
// protocol). Two properties are measured per tree:
//
//   - Work conservation: the merged completion stream's steady-state
//     rate must match the single-application optimal — sharing the tree
//     costs the aggregate nothing. By construction the tagged run's
//     aggregate schedule is identical to the untagged one, so this also
//     cross-checks the tagging invariance end to end.
//   - Weighted fairness: measured mid-run, each tenant's share of the
//     completion stream must be monotone in its weight, and Jain's
//     index over the weight-normalized shares must be near 1.

// FairnessOutcome measures one tree shared by one tenant-count.
type FairnessOutcome struct {
	// Index is the tree's position in the random population, or -1 for
	// the paper's Figure 1 example tree.
	Index int
	// Apps is the number of tenants (weights 1..Apps).
	Apps int
	// RateRatio is the aggregate mid-run completion rate divided by the
	// single-application optimal rate 1/TreeWeight.
	RateRatio float64
	// Reached reports the paper's onset detector (Section 4.1) found the
	// merged stream reaching the optimal steady-state rate.
	Reached bool
	// Shares is each tenant's fraction of mid-run completions, ordered by
	// weight (tenant i has weight i+1).
	Shares []float64
	// Monotone reports that Shares is non-decreasing in weight (within a
	// one-percentage-point measurement tolerance).
	Monotone bool
	// Jain is Jain's fairness index over the weight-normalized shares.
	Jain float64
}

// FairnessPoint aggregates one tenant-count over the whole population.
type FairnessPoint struct {
	Apps     int
	Example  FairnessOutcome // the Figure 1 tree
	Outcomes []FairnessOutcome
}

// Within returns the fraction of outcomes (example tree included) whose
// aggregate rate is within tol of the single-application optimal.
func (p *FairnessPoint) Within(tol float64) float64 {
	ok, n := p.count(func(oc FairnessOutcome) bool { return oc.RateRatio >= 1-tol && oc.RateRatio <= 1+tol })
	return float64(ok) / float64(n)
}

// MonotoneFraction returns the fraction of outcomes whose shares are
// monotone in weight.
func (p *FairnessPoint) MonotoneFraction() float64 {
	ok, n := p.count(func(oc FairnessOutcome) bool { return oc.Monotone })
	return float64(ok) / float64(n)
}

// count returns how many outcomes (example tree included) keep accepts,
// and how many there are: at least one, the example tree.
func (p *FairnessPoint) count(keep func(FairnessOutcome) bool) (ok, n int) {
	for _, oc := range p.all() {
		n++
		if keep(oc) {
			ok++
		}
	}
	return ok, n
}

// MeanJain and MinJain summarize the fairness index across the
// population; MinRatio is the worst aggregate-rate ratio observed.
func (p *FairnessPoint) MeanJain() float64 {
	var sum float64
	all := p.all()
	for _, oc := range all {
		sum += oc.Jain
	}
	if len(all) == 0 {
		return 0
	}
	return sum / float64(len(all))
}

func (p *FairnessPoint) MinJain() float64 {
	min := 1.0
	for _, oc := range p.all() {
		if oc.Jain < min {
			min = oc.Jain
		}
	}
	return min
}

func (p *FairnessPoint) MinRatio() float64 {
	first := true
	var min float64
	for _, oc := range p.all() {
		if first || oc.RateRatio < min {
			min, first = oc.RateRatio, false
		}
	}
	return min
}

func (p *FairnessPoint) all() []FairnessOutcome {
	return append([]FairnessOutcome{p.Example}, p.Outcomes...)
}

// FairnessResult is the whole study: tenant counts 2..MaxApps over the
// Figure 1 tree plus the random population.
type FairnessResult struct {
	Options Options
	Points  []FairnessPoint
}

// fairnessMaxApps is the largest tenant count the study sweeps.
const fairnessMaxApps = 8

// fairnessWorkloads builds N tenants with weights 1..N and task counts
// proportional to weight (so every tenant stays busy through the whole
// horizon and mid-run shares reflect scheduling, not early exhaustion),
// totalling tasks.
func fairnessWorkloads(n int, tasks int64) []engine.Workload {
	sumW := int64(n) * int64(n+1) / 2
	ws := make([]engine.Workload, n)
	var used int64
	for i := range ws {
		w := int64(i + 1)
		t := tasks * w / sumW
		if t < 2 {
			t = 2
		}
		ws[i] = engine.Workload{App: fmt.Sprintf("app%d", i+1), Tasks: t, Weight: w}
		used += t
	}
	// Remainder to the heaviest tenant, keeping the total exact.
	if d := tasks - used; d > 0 {
		ws[n-1].Tasks += d
	}
	return ws
}

// fairnessConfig makes cfg run n tenants sharing o.Tasks.
func fairnessConfig(o Options, n int, cfg *engine.Config) {
	cfg.Tasks, cfg.Workloads = 0, fairnessWorkloads(n, o.Tasks)
}

// fairnessOutcome reduces ev's last run, n tenants on its loaded tree,
// to a FairnessOutcome; oc is that run's outcome, whose onset verdict
// judged the merged stream.
func fairnessOutcome(n int, oc TreeOutcome, ev *Evaluator) FairnessOutcome {
	res := ev.res
	out := FairnessOutcome{Index: oc.Index, Apps: n, Reached: oc.Reached}

	// Aggregate rate over the central 60% of the merged stream (clear of
	// ramp-up and drain), against the single-application optimal, and the
	// per-tenant shares over the same window.
	var lo, hi sim.Time
	out.Shares, lo, hi = engine.MidRunShares(res)
	if hi > lo {
		rate := float64(engine.CountBetween(res.Completions, lo, hi)) / float64(hi-lo)
		out.RateRatio = rate * ev.weight.Float64()
	}
	norm := make([]float64, n)
	for i, share := range out.Shares {
		norm[i] = share / float64(res.Apps[i].Weight)
	}
	out.Monotone = true
	for i := 1; i < n; i++ {
		if out.Shares[i] < out.Shares[i-1]-0.01 {
			out.Monotone = false
		}
	}
	out.Jain = stats.Jain(norm)
	return out
}

// Fairness runs the multi-tenant fairness study: tenant counts 2..8, one
// IC(3) column each, over the Figure 1 tree and one sweep of o.Trees
// random trees whose config edit gives each column its tenants.
func Fairness(o Options) (*FairnessResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	r := &FairnessResult{Options: o}
	var protos []protocol.Protocol
	ex := NewEvaluator()
	ex.use(ExampleTree(), -1)
	for n := 2; n <= fairnessMaxApps; n++ {
		protos = append(protos, protocol.Interruptible(3))
		cfg := ex.config(o, protos[n-2])
		fairnessConfig(o, n, &cfg)
		oc, err := ex.run(o, cfg)
		if err != nil {
			return nil, fmt.Errorf("fairness, %d apps: %w", n, err)
		}
		r.Points = append(r.Points, FairnessPoint{Apps: n, Example: fairnessOutcome(n, oc, ex), Outcomes: make([]FairnessOutcome, o.Trees)})
	}
	if _, err := (sweep{
		protos: protos,
		edit:   func(col, _ int, cfg *engine.Config) { fairnessConfig(o, col+2, cfg) },
		measure: func(col int, oc TreeOutcome, ev *Evaluator) error {
			r.Points[col].Outcomes[oc.Index] = fairnessOutcome(col+2, oc, ev)
			return nil
		},
	}).run(o); err != nil {
		return nil, err
	}
	return r, nil
}

// Render writes the per-tenant-count table plus the example tree's
// measured shares.
func (r *FairnessResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fairness: N tenants, weights 1..N, IC(3), %d random trees + Figure 1 tree, %d tasks\n\n",
		r.Options.Trees, r.Options.Tasks)
	fmt.Fprintf(w, "%4s %12s %10s %10s %10s %10s %10s\n",
		"N", "agg<=5%off", "min ratio", "reached", "monotone", "mean Jain", "min Jain")
	for i := range r.Points {
		p := &r.Points[i]
		reached, n := p.count(func(oc FairnessOutcome) bool { return oc.Reached })
		fmt.Fprintf(w, "%4d %11.1f%% %10.4f %9.1f%% %9.1f%% %10.4f %10.4f\n",
			p.Apps, 100*p.Within(0.05), p.MinRatio(),
			100*float64(reached)/float64(n),
			100*p.MonotoneFraction(), p.MeanJain(), p.MinJain())
	}
	fmt.Fprintf(w, "\nFigure 1 tree, measured mid-run shares (weights 1..N; ideal share of tenant i is i/ΣW):\n")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(w, "  N=%d:", p.Apps)
		for _, s := range p.Example.Shares {
			fmt.Fprintf(w, " %6.3f", s)
		}
		fmt.Fprintf(w, "   (Jain %.4f, agg ratio %.4f)\n", p.Example.Jain, p.Example.RateRatio)
	}
	return nil
}
