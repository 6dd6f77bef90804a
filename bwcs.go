// Package bwcs implements autonomous bandwidth-centric scheduling of
// independent-task applications on tree-structured computing platforms,
// reproducing Kreaseck, Carter, Casanova and Ferrante, "Autonomous
// Protocols for Bandwidth-Centric Scheduling of Independent-task
// Applications" (IPDPS 2003).
//
// # Model
//
// A platform is a node-weighted, edge-weighted tree: W(i) is node i's time
// to compute one task, C(i) the time to move one task (input plus results)
// across the edge to i's parent. The root holds the application's pool of
// identical, independent tasks. Every node can simultaneously receive one
// task from its parent, send one task to one child, and compute ("base
// model").
//
// # What the library provides
//
//   - The optimal steady-state rate and fluid schedule of any platform
//     tree (the bandwidth-centric theorem), via Optimal.
//   - The paper's autonomous protocols — distributed, request-driven
//     scheduling using only locally observable information — with
//     interruptible (IC) and non-interruptible (NonIC) communications,
//     simulated deterministically by Simulate.
//   - The paper's steady-state detection methodology (sliding growing
//     windows, exact rational comparisons) via Evaluate and RateSeries.
//   - The paper's random platform generator (GenerateTree) and its example
//     platform (ExampleTree).
//
// # Quick start
//
// Work is described as Workloads — one per application (tenant) sharing
// the platform — and evaluated with EvaluateWorkloads. The paper's
// single-application experiments are the one-workload special case:
//
//	t := bwcs.NewTree(10)                  // root computes a task in 10
//	t.AddChild(t.Root(), 5, 1)             // fast link, medium CPU
//	t.AddChild(t.Root(), 2, 8)             // slow link, fast CPU
//	m, err := bwcs.EvaluateWorkloads(ctx, t, bwcs.IC(3), []bwcs.Workload{
//		{App: "batch", Tasks: 8_000, Weight: 1},
//		{App: "interactive", Tasks: 2_000, Weight: 3},
//	})
//	// m.Optimal.Rate       — the provably optimal steady-state rate
//	// m.Aggregate.Reached  — did the platform attain it overall?
//	// m.Apps[1].Share      — the tenant's measured mid-run share
//	// m.Fairness           — Jain's index of weighted fair sharing
//
// Run-level knobs (seeds, mid-run mutations, checkpoints, tracing,
// metrics) are functional options shared by every entry point:
// EvaluateWorkloads(ctx, t, p, ws, bwcs.WithSeed(7), bwcs.WithMetrics(&m)).
// Evaluate is the single-workload shorthand, and Simulate exposes the raw
// engine run without the analysis.
//
// The full evaluation of the paper (every figure and table) lives in the
// bwexp command; see EXPERIMENTS.md for measured-versus-paper results.
package bwcs

import (
	"context"
	"fmt"
	"io"

	"bwcs/internal/engine"
	"bwcs/internal/experiments"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/steady"
	"bwcs/internal/tree"
	"bwcs/internal/window"
)

// Tree is a weighted platform tree. Build one with NewTree and AddChild,
// decode one with DecodeTree, or generate one with GenerateTree.
type Tree = tree.Tree

// NodeID identifies a node of a Tree; the root is always 0.
type NodeID = tree.NodeID

// Rat is an exact rational number; optimal rates are exact.
type Rat = rational.Rat

// NewTree returns a platform holding only a root that computes one task in
// rootW timesteps.
func NewTree(rootW int64) *Tree { return tree.New(rootW) }

// DecodeTree reads a platform in the text format produced by Tree.Encode.
func DecodeTree(r io.Reader) (*Tree, error) { return tree.Decode(r) }

// TreeParams are the paper's five random-platform parameters (m, n, b, d,
// x); see DefaultTreeParams.
type TreeParams = randtree.Params

// DefaultTreeParams returns the paper's simulation parameters:
// 10..500 nodes, link times 1..100, compute times x/100..x with x=10000.
func DefaultTreeParams() TreeParams { return randtree.Defaults() }

// GenerateTree returns the index'th random platform of the deterministic
// stream identified by (params, seed). The same triple always yields the
// same tree.
func GenerateTree(params TreeParams, seed uint64, index int) *Tree {
	return randtree.TreeAt(params, seed, index)
}

// ExampleTree reconstructs the paper's Figure 1 three-site platform; the
// adaptability experiment of Figure 7 runs on it.
func ExampleTree() *Tree { return experiments.ExampleTree() }

// Allocation is the bandwidth-centric theorem's result: the optimal
// steady-state rate and one fluid schedule attaining it.
type Allocation = optimal.Allocation

// Optimal computes the optimal steady-state rate of t and the per-node
// allocation attaining it (Theorem 1 of the paper, applied bottom-up).
func Optimal(t *Tree) *Allocation { return optimal.Compute(t) }

// Protocol is an autonomous scheduling policy.
type Protocol = protocol.Protocol

// IC returns the paper's interruptible-communication protocol with fb
// fixed buffers per node: a request from a faster-communicating child
// preempts an in-flight send to a slower one; the preempted transfer
// resumes later from where it left off. The paper's headline protocol is
// IC(3).
func IC(fb int) Protocol { return protocol.Interruptible(fb) }

// NonIC returns the paper's non-interruptible protocol with ib initial
// buffers per node and the three buffer-growth events of Section 3.1.
func NonIC(ib int) Protocol { return protocol.NonInterruptible(ib) }

// NonICFixed returns the non-interruptible protocol with a fixed buffer
// pool (no growth), as used in the paper's adaptability experiment.
func NonICFixed(fb int) Protocol { return protocol.NonInterruptibleFixed(fb) }

// Order selects how a node prioritizes children competing for its send
// port; the paper's protocols use BandwidthCentric, the rest are
// baselines.
type Order = protocol.Order

// Child-selection orders, re-exported for Protocol.WithOrder.
const (
	BandwidthCentric = protocol.BandwidthCentric
	ComputeCentric   = protocol.ComputeCentric
	FCFS             = protocol.FCFS
	RoundRobin       = protocol.RoundRobin
	RandomOrder      = protocol.Random
)

// SimConfig configures one simulation run; see Simulate.
type SimConfig = engine.Config

// SimResult is a completed run: completion times, per-node statistics,
// buffer checkpoints.
type SimResult = engine.Result

// Mutation changes a node or edge weight mid-run (adaptability studies).
type Mutation = engine.Mutation

// AttachMutation grafts a subtree onto the platform mid-run (dynamic
// overlays).
type AttachMutation = engine.AttachMutation

// DepartMutation removes a subtree mid-run; the tasks it held are requeued
// at the root and re-dispatched (volunteer-computing re-execution
// semantics).
type DepartMutation = engine.DepartMutation

// SimTimeline is the sampled telemetry of one run — completion rate,
// per-link utilization, root-pool depth and per-application share over
// simulated time; see WithTimeline. Series are bounded: on overflow a
// series halves itself and doubles its resolution, so any run length
// fits in O(capacity) points.
type SimTimeline = engine.Timeline

// Simulate executes an independent-task application on a platform tree
// under an autonomous protocol, deterministically. It is equivalent to
// SimulateContext with context.Background().
func Simulate(cfg SimConfig) (*SimResult, error) { return engine.Run(cfg) }

// SimulateContext is Simulate under a context: the run polls ctx every
// few thousand simulator events and abandons the sweep with a wrapped
// ctx.Err() once it is canceled or its deadline passes. Determinism is
// unaffected — an uncanceled SimulateContext run returns exactly what
// Simulate returns. Any Ctx already set in cfg is overridden.
func SimulateContext(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	cfg.Ctx = ctx
	return engine.Run(cfg)
}

// RateSeries is the sliding-growing-window throughput analysis of a run.
type RateSeries = window.Series

// NewRateSeries wraps a run's completion times for windowed-rate analysis
// against the optimal steady-state weight optWeight (= 1/rate).
func NewRateSeries(completions []Time, optWeight Rat) (*RateSeries, error) {
	return window.New(completions, optWeight)
}

// Time is the simulated clock in integer timesteps.
type Time = sim.Time

// OnsetThreshold is the paper's window threshold for the onset detector.
const OnsetThreshold = window.DefaultThreshold

// SteadyState is a periodicity-based exact steady-state detection; see
// DetectSteadyState.
type SteadyState = steady.Detection

// SteadyClass classifies a detected steady rate against the optimal rate.
type SteadyClass = steady.Class

// Steady-state classifications.
const (
	NoSteadyState    = steady.NoSteadyState
	SteadySuboptimal = steady.Suboptimal
	SteadyOptimal    = steady.Optimal
	SteadyAnomalous  = steady.Anomalous
)

// DetectSteadyState finds the smallest batch b and period p such that the
// run completes exactly b tasks every p timesteps over a long interval,
// giving the steady-state rate b/p as an exact rational. This is the
// theoretically-grounded alternative to the paper's windowed heuristic
// (its Section 4.1 leaves such criteria as future work): exclusion of
// startup and wind-down falls out of the periodicity requirement, and the
// comparison against the optimal rate is exact.
func DetectSteadyState(completions []Time) SteadyState {
	return steady.Detect(completions, steady.Options{})
}

// Summary bundles everything Evaluate learns about one run.
type Summary struct {
	Result  *SimResult
	Optimal *Allocation
	Series  *RateSeries
	// Reached reports whether the run attained the optimal steady-state
	// rate under the paper's detector; Onset is the window index where.
	Reached bool
	Onset   int
	// Steady is the periodicity-based detection and Class its exact
	// comparison against the optimal rate.
	Steady SteadyState
	Class  SteadyClass
	// Timeline is the run's sampled telemetry when WithTimeline was set;
	// nil otherwise.
	Timeline *SimTimeline
	// Converged and ConvergedAt report the convergence detector's verdict
	// over the timeline's rate series: the earliest simulated time from
	// which the completion rate stayed within ConvergeEps of its trailing
	// steady value for at least ConvergeWindow consecutive samples. Only
	// meaningful when Timeline is non-nil.
	Converged   bool
	ConvergedAt Time
}

// Convergence detector defaults applied by Evaluate and
// EvaluateWorkloads to the timeline's rate series. The 5% band absorbs
// the quantization wiggle of integer completion counts per interval;
// eight samples make one spurious in-band point insufficient.
const (
	ConvergeEps    = 0.05
	ConvergeWindow = 8
)

// Evaluate runs protocol p on tree t for the given number of tasks and
// analyzes the run against the tree's optimal steady-state rate. It is a
// thin single-workload shim over the same machinery as EvaluateWorkloads:
// Evaluate(t, p, n) is event-for-event the run EvaluateWorkloads performs
// for one workload of n tasks.
//
// Evaluate uses the inclusive onset detector (windowed rate at or above
// optimal, twice after the threshold window): platforms whose schedules
// are exactly periodic at the optimal rate never go strictly above it, so
// the paper's strict criterion — designed for large random trees whose
// discrete completions wiggle around the rate — would misclassify them.
// The experiment harness (bwexp, internal/experiments) keeps the strict
// detector for paper fidelity.
//
// Deprecated-in-spirit: the positional form predates Workloads and is
// kept so existing call sites compile unchanged; new code should call
// EvaluateWorkloads, which subsumes it.
func Evaluate(t *Tree, p Protocol, tasks int64, opts ...Option) (*Summary, error) {
	return EvaluateContext(context.Background(), t, p, tasks, opts...)
}

// EvaluateContext is Evaluate under a context: long simulations of large
// platforms poll ctx every few thousand simulator events, so deadlines
// and interactive cancellation (ctrl-c) take effect mid-run instead of
// after the sweep drains. A canceled run returns a wrapped ctx.Err().
//
// Like Evaluate, this is the legacy positional single-workload form;
// prefer EvaluateWorkloads in new code.
func EvaluateContext(ctx context.Context, t *Tree, p Protocol, tasks int64, opts ...Option) (*Summary, error) {
	if tasks < 2 {
		return nil, fmt.Errorf("bwcs: need at least 2 tasks, got %d", tasks)
	}
	s := newEvalSettings(opts)
	s.cfg.Tree, s.cfg.Protocol, s.cfg.Tasks, s.cfg.Ctx = t, p, tasks, ctx
	res, err := engine.Run(s.cfg)
	if err != nil {
		return nil, err
	}
	if s.metrics != nil {
		*s.metrics = res.Metrics
	}
	return summarize(res, optimal.Compute(t), s.threshold)
}

// summarize performs the steady-state analysis shared by Evaluate and
// EvaluateWorkloads' aggregate view.
func summarize(res *SimResult, opt *Allocation, threshold int) (*Summary, error) {
	series, err := window.New(res.Completions, opt.TreeWeight)
	if err != nil {
		return nil, err
	}
	s := &Summary{Result: res, Optimal: opt, Series: series}
	s.Onset, s.Reached = series.OnsetInclusive(threshold)
	s.Steady = steady.Detect(res.Completions, steady.Options{})
	s.Class = s.Steady.Classify(opt.TreeWeight)
	s.Timeline = res.Timeline
	// Samples start after t=0, so a zero bound judges the whole run.
	s.ConvergedAt, s.Converged = res.Timeline.Converged(0, ConvergeEps, ConvergeWindow)
	return s, nil
}
