package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/tree"
)

// ChurnResult measures the paper's future-work question of resilience "to
// changes in resource conditions and to dynamically evolving pools of
// resources": random platforms run the same application with and without
// churn (random subtrees departing and fresh ones joining mid-run), and
// the slowdown plus the re-executed work quantify the cost of churn under
// the autonomous protocol.
type ChurnResult struct {
	Options Options
	Events  int // departures and attachments per run

	// MeanSlowdown is the mean of makespan(churn)/makespan(static).
	MeanSlowdown float64
	// MeanRequeuedFraction is the mean of requeued/Tasks.
	MeanRequeuedFraction float64
	// Completed reports whether every churned run finished all tasks (a
	// correctness check: churn must never lose work).
	Completed bool
}

// Churn runs the study with the given number of churn events per run
// (half departures, half joins), spread evenly across the application:
// one sweep of IC FB=3 on the static platform beside IC FB=3 under that
// tree's seeded departures and attachments.
func Churn(o Options, events int) (*ChurnResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if events < 2 {
		return nil, fmt.Errorf("churn: need at least 2 events, got %d", events)
	}
	proto := protocol.Interruptible(3)
	requeued := make([]int64, o.Trees)
	finished := make([]bool, o.Trees)
	pops, err := sweep{
		protos: []protocol.Protocol{proto, proto},
		edit: func(col, i int, cfg *engine.Config) {
			if col == 1 {
				churnEvents(o, i, events, cfg)
			}
		},
		measure: func(col int, oc TreeOutcome, ev *Evaluator) error {
			if col == 1 {
				finished[oc.Index] = int64(len(ev.res.Completions)) == o.Tasks
				requeued[oc.Index] = ev.res.Requeued
			}
			return nil
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	out := &ChurnResult{Options: o, Events: events, Completed: true}
	var sumSlow, sumReq float64
	for i := range requeued {
		sumSlow += float64(pops[1].Outcomes[i].Makespan) / float64(pops[0].Outcomes[i].Makespan)
		sumReq += float64(requeued[i]) / float64(o.Tasks)
		if !finished[i] {
			out.Completed = false
		}
	}
	out.MeanSlowdown = sumSlow / float64(o.Trees)
	out.MeanRequeuedFraction = sumReq / float64(o.Trees)
	return out, nil
}

// churnEvents adds tree i's seeded departures and attachments to cfg,
// which runs that tree.
func churnEvents(o Options, i, events int, cfg *engine.Config) {
	tr := cfg.Tree
	rng := rand.New(rand.NewPCG(o.Seed^0x5bd1e995, uint64(i)))
	step := o.Tasks / int64(events+1)
	for ev := 0; ev < events; ev++ {
		at := step * int64(ev+1)
		if ev%2 == 0 && tr.Len() > 1 {
			// Depart a random non-root node of the original tree.
			victim := tree.NodeID(rng.IntN(tr.Len()-1) + 1)
			cfg.Departures = append(cfg.Departures, engine.DepartMutation{AfterTasks: at, Node: victim})
		} else {
			// A small random site joins under a random original node.
			site := tree.New(rng.Int64N(o.Params.Comp) + 1)
			for k := rng.IntN(4); k > 0; k-- {
				site.AddChild(site.Root(), rng.Int64N(o.Params.Comp)+1, rng.Int64N(o.Params.MaxComm)+1)
			}
			cfg.Attachments = append(cfg.Attachments, engine.AttachMutation{
				AfterTasks: at,
				Parent:     tree.NodeID(rng.IntN(tr.Len())),
				Subtree:    site,
				C:          rng.Int64N(o.Params.MaxComm) + 1,
			})
		}
	}
}

// Render writes the churn study summary.
func (r *ChurnResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Churn study (future work §6): resilience to dynamically evolving resource pools")
	fmt.Fprintf(w, "%d random platforms, %d tasks, %d churn events each (alternating departures and joins), IC FB=3\n\n",
		r.Options.Trees, r.Options.Tasks, r.Events)
	fmt.Fprintf(w, "all tasks completed under churn: %v\n", r.Completed)
	fmt.Fprintf(w, "mean makespan slowdown vs static platform: %.3fx\n", r.MeanSlowdown)
	fmt.Fprintf(w, "mean re-executed work: %.2f%% of the application\n", 100*r.MeanRequeuedFraction)
	return nil
}

// AblationDecayResult compares the non-IC growth protocol with and without
// buffer decay: decay should shrink buffer footprints without hurting the
// reached fraction. The paper calls for decay but neither specifies nor
// evaluates it; this is the missing experiment.
type AblationDecayResult struct {
	Options Options
	// Plain and Decay summarize non-IC IB=1 without and with decay.
	PlainReached, DecayReached     float64
	PlainMeanTotal, DecayMeanTotal float64 // mean total buffers per tree
	MeanRetired                    float64 // mean buffers retired per tree (decay run)
}

// AblationDecay runs both variants over the population, two columns of
// one sweep.
func AblationDecay(o Options) (*AblationDecayResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	retired := make([]int64, o.Trees) // buffers retired per tree under decay
	pops, err := sweep{
		protos: []protocol.Protocol{protocol.NonInterruptible(1), protocol.NonInterruptible(1).WithDecay()},
		measure: func(col int, oc TreeOutcome, ev *Evaluator) error {
			if col == 1 {
				for _, ns := range ev.res.Nodes {
					retired[oc.Index] += ns.Decayed
				}
			}
			return nil
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	// Integer sums, so the means cannot depend on summation order.
	meanTotal := func(p *Population) float64 {
		var sum int64
		for _, oc := range p.Outcomes {
			sum += oc.TotalBuffers
		}
		return float64(sum) / float64(o.Trees)
	}
	var sumRetired int64
	for _, n := range retired {
		sumRetired += n
	}
	return &AblationDecayResult{
		Options:        o,
		PlainReached:   pops[0].Agg.ReachedFraction(),
		DecayReached:   pops[1].Agg.ReachedFraction(),
		PlainMeanTotal: meanTotal(&pops[0]),
		DecayMeanTotal: meanTotal(&pops[1]),
		MeanRetired:    float64(sumRetired) / float64(o.Trees),
	}, nil
}

// Render writes the decay ablation summary.
func (r *AblationDecayResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: buffer decay on non-IC IB=1 (the growth+decay protocol §3.1 calls for)")
	fmt.Fprintf(w, "%-12s %10s %22s\n", "variant", "reached", "mean total buffers/tree")
	fmt.Fprintf(w, "%-12s %9.2f%% %22.0f\n", "growth only", 100*r.PlainReached, r.PlainMeanTotal)
	fmt.Fprintf(w, "%-12s %9.2f%% %22.0f\n", "with decay", 100*r.DecayReached, r.DecayMeanTotal)
	fmt.Fprintf(w, "\nmean buffers retired by decay per tree: %.0f\n", r.MeanRetired)
	fmt.Fprintf(w, "%d trees, %d tasks\n", r.Options.Trees, r.Options.Tasks)
	return nil
}
