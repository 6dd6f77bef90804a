package bwcs

// Multi-application evaluation: several independent-task applications
// (tenants) share one platform tree under weighted bandwidth-centric
// scheduling. The paper schedules one application per tree; Workload and
// EvaluateWorkloads generalize it — each task is tagged with its
// application, the root keeps one pool per application, and every send or
// compute decision picks the application by weighted round-robin before
// the paper's bandwidth-centric priority decides where the task goes.
// Tagging never perturbs the aggregate schedule, so everything the paper
// proves about a single application's steady state carries over to the
// merged stream verbatim.

import (
	"context"
	"fmt"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/rational"
	"bwcs/internal/stats"
	"bwcs/internal/steady"
	"bwcs/internal/window"
)

// Workload describes one application sharing the platform: its task
// count, its sharing weight (zero means 1), and the simulated time its
// pool opens at the root (zero releases it at the start; positive values
// let tenants join mid-run).
type Workload = engine.Workload

// AppSummary is the per-application slice of a MultiSummary, carrying the
// same steady-state analysis Evaluate performs for a single application,
// measured against the application's weighted fair share of the platform.
type AppSummary struct {
	// App, Weight, Release and Tasks echo the workload (Weight
	// normalized: zero reports as 1).
	App     string
	Weight  int64
	Release Time
	Tasks   int64
	// Completions are this application's completion times, ascending;
	// Requeued counts its tasks re-dispatched after departures.
	Completions []Time
	Requeued    int64
	// FairWeight is the application's weighted fair share of the optimal
	// steady-state rate, expressed as a task weight (time per task):
	// TreeWeight × ΣWeight ⁄ Weight. An application computing one task
	// every FairWeight timesteps receives exactly its share.
	FairWeight Rat
	// Series, Reached and Onset are the paper's windowed onset analysis of
	// the application's completion stream against FairWeight; Series is
	// nil when the application completed fewer than two tasks.
	Series  *RateSeries
	Reached bool
	Onset   int
	// Steady and Class are the periodicity-based detection and its exact
	// classification against FairWeight.
	Steady SteadyState
	Class  SteadyClass
	// Share is the fraction of aggregate completions belonging to this
	// application over the mid-run measurement window (the central 60% of
	// the merged stream, clear of startup and wind-down).
	Share float64
}

// MultiSummary bundles everything EvaluateWorkloads learns about one
// multi-application run.
type MultiSummary struct {
	// Result is the raw engine outcome (Result.Apps holds the
	// per-application completion streams).
	Result  *SimResult
	Optimal *Allocation
	// Aggregate analyzes the merged completion stream exactly as Evaluate
	// analyzes a single application: tagging does not perturb the
	// aggregate schedule, so the merged stream reaches the single-app
	// optimal rate whenever the untagged run would.
	Aggregate *Summary
	// Apps are the per-application analyses, in workload order.
	Apps []AppSummary
	// Fairness is Jain's fairness index over the applications'
	// weight-normalized mid-run shares (Share ⁄ Weight): 1 when service is
	// exactly proportional to weight, approaching 1⁄N as one application
	// monopolizes the platform.
	Fairness float64
	// Timeline, Converged and ConvergedAt mirror the Aggregate analysis
	// (see Summary): the run's sampled telemetry when WithTimeline was
	// set, and the convergence verdict over its aggregate rate series.
	Timeline    *SimTimeline
	Converged   bool
	ConvergedAt Time
}

// EvaluateWorkloads runs N applications concurrently on tree t under
// protocol p with weighted bandwidth-centric sharing, and analyzes both
// the aggregate run (against the tree's optimal steady-state rate) and
// each application (against its weighted fair share). At least one
// workload and two tasks in total are required.
//
// A single-workload call is event-for-event identical to Evaluate with
// the same task count — tags ride along without touching the schedule —
// so Evaluate is exactly the one-tenant special case.
func EvaluateWorkloads(ctx context.Context, t *Tree, p Protocol, ws []Workload, opts ...Option) (*MultiSummary, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("bwcs: no workloads")
	}
	var total int64
	for _, w := range ws {
		total += w.Tasks
	}
	if total < 2 {
		return nil, fmt.Errorf("bwcs: need at least 2 tasks across workloads, got %d", total)
	}
	s := newEvalSettings(opts)
	s.cfg.Tree, s.cfg.Protocol, s.cfg.Workloads, s.cfg.Ctx = t, p, ws, ctx
	res, err := engine.Run(s.cfg)
	if err != nil {
		return nil, err
	}
	if s.metrics != nil {
		*s.metrics = res.Metrics
	}
	opt := optimal.Compute(t)
	agg, err := summarize(res, opt, s.threshold)
	if err != nil {
		return nil, err
	}
	m := &MultiSummary{Result: res, Optimal: opt, Aggregate: agg,
		Timeline: agg.Timeline, Converged: agg.Converged, ConvergedAt: agg.ConvergedAt}

	var sumW int64
	for _, ar := range res.Apps {
		sumW += ar.Weight // normalized by the engine
	}
	shares, _, _ := engine.MidRunShares(res)
	m.Apps = make([]AppSummary, len(res.Apps))
	for i, ar := range res.Apps {
		as := AppSummary{
			App: ar.App, Weight: ar.Weight, Release: ar.Release, Tasks: ar.Tasks,
			Completions: ar.Completions, Requeued: ar.Requeued,
			Share: shares[i],
		}
		// Fair-share rate is opt.Rate × w ⁄ ΣW; as a task weight that is
		// TreeWeight × ΣW ⁄ w.
		as.FairWeight = opt.TreeWeight.Mul(rational.FromInt(sumW)).Div(rational.FromInt(ar.Weight))
		if len(ar.Completions) >= 2 {
			series, err := window.New(ar.Completions, as.FairWeight)
			if err != nil {
				return nil, err
			}
			as.Series = series
			as.Onset, as.Reached = series.OnsetInclusive(s.threshold)
		}
		as.Steady = steady.Detect(ar.Completions, steady.Options{})
		as.Class = as.Steady.Classify(as.FairWeight)
		m.Apps[i] = as
	}
	m.Fairness = jain(m.Apps)
	return m, nil
}

// jain computes Jain's fairness index over the applications'
// weight-normalized shares x_i = Share_i ⁄ Weight_i:
// (Σx)² ⁄ (N·Σx²) ∈ (0, 1], equal to 1 iff every x_i is equal.
func jain(apps []AppSummary) float64 {
	xs := make([]float64, len(apps))
	for i, a := range apps {
		xs[i] = a.Share / float64(a.Weight)
	}
	return stats.Jain(xs)
}
