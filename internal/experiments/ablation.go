package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/protocol"
	"bwcs/internal/textplot"
)

// AblationPolicyResult compares child-selection policies at equal fixed
// buffers (3 per node, no interruption), isolating the paper's
// bandwidth-centric ordering claim from buffering and preemption effects.
// This experiment is not in the paper; DESIGN.md calls it out as an
// ablation of the central design choice.
type AblationPolicyResult struct {
	Options     Options
	Populations []Population
}

// AblationPolicy runs all five orderings over the same population.
func AblationPolicy(o Options) (*AblationPolicyResult, error) {
	protos := []protocol.Protocol{
		protocol.NonInterruptibleFixed(3).WithOrder(protocol.BandwidthCentric),
		protocol.NonInterruptibleFixed(3).WithOrder(protocol.ComputeCentric),
		protocol.NonInterruptibleFixed(3).WithOrder(protocol.FCFS),
		protocol.NonInterruptibleFixed(3).WithOrder(protocol.RoundRobin),
		protocol.NonInterruptibleFixed(3).WithOrder(protocol.Random),
	}
	pops, err := RunPopulation(o, protos)
	if err != nil {
		return nil, err
	}
	return &AblationPolicyResult{Options: o, Populations: pops}, nil
}

// Render writes reached fractions and mean makespans per policy.
func (r *AblationPolicyResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: child-selection policy at fixed buffers (FB=3, no interruption)")
	labels := make([]string, len(r.Populations))
	reached := make([]float64, len(r.Populations))
	for i := range r.Populations {
		p := &r.Populations[i]
		labels[i] = p.Protocol.Order.String()
		reached[i] = 100 * p.Agg.ReachedFraction()
	}
	if err := textplot.Bars(w, "trees reaching optimal steady state (%)", labels, reached, 40); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-20s %10s %14s\n", "policy", "reached", "mean makespan")
	for i := range r.Populations {
		p := &r.Populations[i]
		var sum int64
		for j := range p.Outcomes {
			sum += int64(p.Outcomes[j].Makespan)
		}
		fmt.Fprintf(w, "%-20s %9.2f%% %14.0f\n", labels[i], reached[i], float64(sum)/float64(len(p.Outcomes)))
	}
	fmt.Fprintf(w, "\n%d trees, %d tasks\n", r.Options.Trees, r.Options.Tasks)
	return nil
}

// AblationInterruptResult compares IC against non-IC at equal fixed
// buffer budgets, isolating the value of interruption itself (the paper
// only compares IC FB=k against non-IC with growth).
type AblationInterruptResult struct {
	Options Options
	Buffers []int
	IC      []float64 // reached fraction under IC FB=b
	NonIC   []float64 // reached fraction under non-IC FB=b (no growth)
}

// AblationInterrupt runs both protocol families at FB in 1..3, six
// columns of one sweep.
func AblationInterrupt(o Options) (*AblationInterruptResult, error) {
	var protos []protocol.Protocol
	for fb := 1; fb <= 3; fb++ {
		protos = append(protos, protocol.Interruptible(fb), protocol.NonInterruptibleFixed(fb))
	}
	pops, err := RunPopulation(o, protos)
	if err != nil {
		return nil, err
	}
	out := &AblationInterruptResult{Options: o}
	for fb := 1; fb <= 3; fb++ {
		out.Buffers = append(out.Buffers, fb)
		out.IC = append(out.IC, pops[2*fb-2].Agg.ReachedFraction())
		out.NonIC = append(out.NonIC, pops[2*fb-1].Agg.ReachedFraction())
	}
	return out, nil
}

// Render writes the comparison table.
func (r *AblationInterruptResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: interruption at equal fixed buffers (% of trees reaching optimal)")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "buffers", "IC", "non-IC", "IC gain")
	for i, fb := range r.Buffers {
		fmt.Fprintf(w, "%-8d %11.2f%% %11.2f%% %+11.2f%%\n",
			fb, 100*r.IC[i], 100*r.NonIC[i], 100*(r.IC[i]-r.NonIC[i]))
	}
	fmt.Fprintf(w, "\n%d trees, %d tasks\n", r.Options.Trees, r.Options.Tasks)
	return nil
}
