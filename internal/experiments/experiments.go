// Package experiments reproduces the paper's evaluation (Section 4): one
// harness per table and figure, each with a typed result and a text
// renderer, plus the ablation studies called out in DESIGN.md.
//
// Every population experiment is a declaration of one sweep (see sweep):
// protocol columns, an optional per-run config edit and an optional
// per-run measure over trees drawn with randtree.TreeAt, keyed by (seed,
// tree index), so results are identical no matter how many workers run
// the sweep, and any individual tree can be regenerated for debugging.
//
// The paper's full scale (25,000 trees × 10,000 tasks) is reachable by
// raising Options; the defaults are scaled down to keep the harness
// interactive while preserving every qualitative shape (see EXPERIMENTS.md
// for measured-vs-paper numbers at both scales).
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/stats"
	"bwcs/internal/tree"
	"bwcs/internal/window"
)

// Options scales an experiment run.
type Options struct {
	// Trees is the number of random trees in the population. The paper
	// uses 25,000 for Figure 4/Table 1 and 1,000 per class for Figure 5.
	Trees int
	// Tasks is the application size. The paper uses 10,000 for Figure 4
	// and 4,000 for Figure 5/Table 2.
	Tasks int64
	// Threshold is the onset detector's window threshold (paper: 300).
	Threshold int
	// Seed drives tree generation and any randomized baseline policy.
	Seed uint64
	// Params generates the tree population.
	Params randtree.Params
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS.
	Workers int

	// Progress, when non-nil, observes sweep advancement: it is called
	// once per tree, after every protocol of the sweep has simulated it,
	// with the number of trees finished so far in that sweep and the
	// population size. Calls arrive from worker goroutines but are
	// serialized, and done runs 1..Trees, increasing by exactly one per
	// call. The callback runs under the sweep's aggregation lock, so it
	// must be quick (a slow one holds up every worker finishing a tree)
	// and must not call back into the sweep. Reporting does not perturb
	// results: the tree population and all outcomes are independent of
	// it.
	Progress func(done, total int)
}

// Default returns scaled-down defaults that preserve the paper's shapes:
// the population is smaller but the tree distribution, task counts and
// detector threshold match the paper's methodology.
func Default() Options {
	return Options{
		Trees:     400,
		Tasks:     2_000,
		Threshold: window.DefaultThreshold,
		Seed:      2003, // the paper's year; any fixed seed works
		Params:    randtree.Defaults(),
	}
}

// Paper returns the paper's full experiment scale for Figure 4 and
// Table 1: 25,000 trees by 10,000 tasks.
func Paper() Options {
	o := Default()
	o.Trees = 25_000
	o.Tasks = 10_000
	return o
}

// Validate reports whether the options are runnable.
func (o Options) Validate() error {
	if o.Trees < 1 {
		return fmt.Errorf("experiments: trees %d < 1", o.Trees)
	}
	if o.Tasks < 2 {
		return fmt.Errorf("experiments: tasks %d < 2", o.Tasks)
	}
	if o.Threshold < 0 {
		return fmt.Errorf("experiments: negative threshold %d", o.Threshold)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: negative workers %d", o.Workers)
	}
	return o.Params.Validate()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TreeOutcome is the per-tree measurement every population experiment
// shares: did the run reach the optimal steady state, when, and at what
// buffer cost.
type TreeOutcome struct {
	Index int // tree index within the population (regenerable via TreeAt)

	// Platform shape.
	Nodes int
	Depth int

	// Steady-state detection (paper Section 4.1).
	Reached bool
	Onset   int // window index of the second above-optimal point

	// Buffer usage (non-IC growth; constant for fixed-buffer protocols):
	// MaxNodeBuffers is the largest grown capacity at any node;
	// MaxNodeUsed the most tasks any node ever had queued — the buffers
	// the run actually needed (the paper's m = MAX(m_i), which Tables 1
	// and 2 report).
	MaxNodeBuffers int64
	MaxNodeUsed    int64
	TotalBuffers   int64

	// Used subtree: nodes that computed at least one task (Figure 6).
	UsedNodes int
	UsedDepth int

	Makespan sim.Time
}

// SweepMetrics instruments one protocol's share of a population sweep:
// throughput plus the engine counters summed over every tree in the
// population. The Engine aggregate is deterministic (integer sums over
// deterministic runs) with one caveat: FreeListHits and EventAllocs
// depend on how warm each worker's reused run state is, so their split
// varies with the worker count and work partition (their sum, the total
// Schedule count, stays deterministic). A sweep is tree-major — each tree
// is generated once and run under every protocol before the next — so no
// wall-clock interval belongs to one protocol: Elapsed is the time the
// workers spent in this protocol's simulations and onset scans, summed
// and divided by the worker count, and TreesPerSec is Trees over that.
// Tree generation and the optimal weight, shared by the protocols, are in
// neither.
type SweepMetrics struct {
	Elapsed     time.Duration
	TreesPerSec float64
	Engine      engine.Metrics
}

// PopulationAgg is the aggregate of one protocol's population sweep,
// folded one TreeOutcome at a time. It holds counting histograms over the
// per-tree outcome fields the figures and tables consume. Onset windows
// are bounded by Tasks/2 and buffer counts by Tasks, so the histograms
// take O(Tasks) memory regardless of how many trees the sweep visits.
type PopulationAgg struct {
	Trees   int // trees observed
	Reached int // trees that reached the optimal steady state

	onsets      *stats.Counter // onset window per reached tree
	reachedUsed *stats.Counter // MaxNodeUsed per reached tree

	// Population-wide maxima (zero when no trees were observed).
	MaxNodeBuffersMax int64
	MaxNodeUsedMax    int64
	TotalBuffersMax   int64
}

// NewPopulationAgg returns an empty aggregate.
func NewPopulationAgg() *PopulationAgg {
	return &PopulationAgg{onsets: stats.NewCounter(), reachedUsed: stats.NewCounter()}
}

// Observe folds one tree's outcome into the aggregate. It is not safe
// for concurrent use; a sweep serializes calls under its aggregation
// lock. Observation order does not affect any aggregate.
func (a *PopulationAgg) Observe(oc TreeOutcome) {
	a.Trees++
	if oc.Reached {
		a.Reached++
		a.onsets.Add(int64(oc.Onset))
		a.reachedUsed.Add(oc.MaxNodeUsed)
	}
	a.MaxNodeBuffersMax = max(a.MaxNodeBuffersMax, oc.MaxNodeBuffers)
	a.MaxNodeUsedMax = max(a.MaxNodeUsedMax, oc.MaxNodeUsed)
	a.TotalBuffersMax = max(a.TotalBuffersMax, oc.TotalBuffers)
}

// ReachedFraction returns the fraction of trees that reached the optimal
// steady-state rate.
func (a *PopulationAgg) ReachedFraction() float64 {
	if a.Trees == 0 {
		return 0
	}
	return float64(a.Reached) / float64(a.Trees)
}

// OnsetCDF returns the Figure 4 curve from the onset histogram: the
// fraction of all trees with onset <= x for each x in xs (ascending).
func (a *PopulationAgg) OnsetCDF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if i > 0 && x < xs[i-1] {
			panic("experiments: CDF series points must be ascending")
		}
		if a.Trees == 0 {
			continue
		}
		out[i] = float64(a.onsets.CountAtMost(x)) / float64(a.Trees)
	}
	return out
}

// MedianOnset returns the median onset window among reached trees,
// quantifying startup length (the paper observes much longer startups
// under non-IC), or 0 when none reached.
func (a *PopulationAgg) MedianOnset() int64 {
	if a.onsets.Total() == 0 {
		return 0
	}
	return a.onsets.Median()
}

// ReachedWithAtMostBuffers returns the fraction of all trees that both
// reached the optimal rate and never needed more than n buffered tasks
// at any single node (Table 1's non-IC row).
func (a *PopulationAgg) ReachedWithAtMostBuffers(n int64) float64 {
	if a.Trees == 0 {
		return 0
	}
	return float64(a.reachedUsed.CountAtMost(n)) / float64(a.Trees)
}

// Population is the outcome of one protocol over the whole tree
// population: the per-tree rows (Figure 6, the ablations and the CSV
// export read them) and the aggregate that answers every population-wide
// question.
type Population struct {
	Protocol protocol.Protocol
	Outcomes []TreeOutcome
	Agg      *PopulationAgg
	Sweep    SweepMetrics
}

// Evaluator takes trees from generation to outcome on state it keeps: a
// randtree.Generator arena for the tree, an optimal.Calculator for its
// weight and an engine.Runner whose event free list, node table and
// completions buffer recycle across runs. It is not safe for concurrent
// use: sweeps hold one Evaluator per worker. The tree, the window series
// and the *engine.Result of a run (whose Tree field is that tree) live in
// the Evaluator's buffers and are valid only until its next call.
type Evaluator struct {
	r    *engine.Runner
	gen  *randtree.Generator
	calc optimal.Calculator

	// The loaded tree, its population index and its optimal weight.
	tree   *tree.Tree
	index  int
	weight rational.Rat

	// The last run of the loaded tree and its window series.
	res    *engine.Result
	series *window.Series
}

// NewEvaluator returns an Evaluator with cold run state.
func NewEvaluator() *Evaluator { return &Evaluator{r: engine.NewRunner()} }

// load generates tree index of o's population into the arena and computes
// its optimal weight: once per tree, however many protocols then run it.
func (ev *Evaluator) load(o Options, index int) {
	if ev.gen == nil || ev.gen.Params() != o.Params {
		ev.gen = randtree.New(o.Params, o.Seed)
	}
	ev.use(ev.gen.TreeAt(o.Seed, index), index)
}

// use loads tr as the tree with population index index and weighs it.
func (ev *Evaluator) use(tr *tree.Tree, index int) {
	ev.tree, ev.index = tr, index
	ev.weight = ev.calc.Weight(tr)
}

// EvaluateTree runs one protocol on tree index of o's population and
// reduces the run to a TreeOutcome; the raw result is returned for
// callers that need more than the outcome summary. It and the tree it
// points to are valid only until this Evaluator's next call.
func (ev *Evaluator) EvaluateTree(o Options, p protocol.Protocol, index int) (TreeOutcome, *engine.Result, error) {
	ev.load(o, index)
	oc, err := ev.run(o, ev.config(o, p))
	return oc, ev.res, err
}

// config is the engine config that runs the loaded tree under p.
func (ev *Evaluator) config(o Options, p protocol.Protocol) engine.Config {
	return engine.Config{Tree: ev.tree, Protocol: p, Tasks: o.Tasks, Seed: o.Seed + uint64(ev.index)}
}

// run simulates cfg, a run of the loaded tree, and scans it for its onset.
func (ev *Evaluator) run(o Options, cfg engine.Config) (TreeOutcome, error) {
	tr, index := ev.tree, ev.index
	ev.res, ev.series = nil, nil
	res, err := ev.r.Run(cfg)
	if err != nil {
		return TreeOutcome{}, fmt.Errorf("tree %d under %v: %w", index, cfg.Protocol, err)
	}
	series, err := window.New(res.Completions, ev.weight)
	if err != nil {
		return TreeOutcome{}, fmt.Errorf("tree %d under %v: %w", index, cfg.Protocol, err)
	}
	ev.res, ev.series = res, series
	out := TreeOutcome{
		Index:          index,
		Nodes:          tr.Len(),
		Depth:          tr.MaxDepth(),
		MaxNodeBuffers: res.MaxNodeBuffers(),
		MaxNodeUsed:    res.MaxNodeUsed(),
		TotalBuffers:   res.TotalBuffers(),
		UsedNodes:      res.UsedCount(),
		UsedDepth:      res.UsedMaxDepth(),
		Makespan:       res.Makespan,
	}
	out.Onset, out.Reached = series.Onset(o.Threshold)
	return out, nil
}

// RunPopulation evaluates each protocol over the same tree population and
// returns one Population per protocol, in order: the sweep with no edit
// and no measure.
func RunPopulation(o Options, protos []protocol.Protocol) ([]Population, error) {
	return sweep{protos: protos}.run(o)
}

// sweep declares one pass over a tree population, the package's only
// loop over one. A worker generates tree i into its Evaluator's arena,
// weighs it once and runs it under every protocol column in turn,
// folding the outcomes into the columns' Populations.
//
// edit, when non-nil, adjusts column col's engine config for tree i
// before it runs (checkpoints, churn events). measure, when
// non-nil, is called on the worker after each run, while the
// Evaluator's result, series and weight still describe that run. Calls
// for different trees run concurrently, so a measure writes only slots
// its tree owns.
type sweep struct {
	protos  []protocol.Protocol
	edit    func(col, i int, cfg *engine.Config)
	measure func(col int, oc TreeOutcome, ev *Evaluator) error
}

// run executes the sweep over o's population and returns one Population
// per column, in order.
func (s sweep) run(o Options) ([]Population, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(s.protos) == 0 {
		return nil, fmt.Errorf("experiments: no protocols")
	}
	out := make([]Population, len(s.protos))
	for pi, p := range s.protos {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out[pi] = Population{Protocol: p, Outcomes: make([]TreeOutcome, o.Trees), Agg: NewPopulationAgg()}
	}
	workers := min(o.workers(), o.Trees)
	// A worker's Evaluator, and per protocol the engine metrics and time
	// of the runs it made, summed over workers once the sweep is done.
	type workerState struct {
		ev    *Evaluator
		sweep []SweepMetrics
	}
	states := make([]workerState, workers)
	for i := range states {
		states[i] = workerState{NewEvaluator(), make([]SweepMetrics, len(s.protos))}
	}
	var (
		mu   sync.Mutex // guards out's Agg, done and the Progress calls
		done int
	)
	if err := parallelFor(o.Trees, workers, func(worker, i int) error {
		st := &states[worker]
		st.ev.load(o, i)
		for pi, p := range s.protos {
			start := time.Now()
			cfg := st.ev.config(o, p)
			if s.edit != nil {
				s.edit(pi, i, &cfg)
			}
			oc, err := st.ev.run(o, cfg)
			if err != nil {
				return err
			}
			st.sweep[pi].Engine.Add(st.ev.res.Metrics)
			st.sweep[pi].Elapsed += time.Since(start)
			out[pi].Outcomes[i] = oc
			if s.measure != nil {
				if err := s.measure(pi, oc, st.ev); err != nil {
					return err
				}
			}
		}
		mu.Lock()
		for pi := range out {
			out[pi].Agg.Observe(out[pi].Outcomes[i])
		}
		done++
		if o.Progress != nil {
			o.Progress(done, o.Trees)
		}
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	for pi := range out {
		sweep := &out[pi].Sweep
		for _, st := range states {
			sweep.Engine.Add(st.sweep[pi].Engine)
			sweep.Elapsed += st.sweep[pi].Elapsed
		}
		sweep.Elapsed /= time.Duration(workers)
		if secs := sweep.Elapsed.Seconds(); secs > 0 {
			sweep.TreesPerSec = float64(o.Trees) / secs
		}
	}
	return out, nil
}

// parallelFor runs fn over indices 0..n-1 across at most workers
// goroutines and returns the first error encountered, wrapped with the
// failing index (all workers drain before return, so every index is
// either processed or abandoned deterministically). fn also receives the
// worker's index in 0..workers-1, so callers can hold per-worker reusable
// state (an Evaluator) without locking.
func parallelFor(n, workers int, fn func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return fmt.Errorf("experiments: index %d: %w", i, err)
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	grab := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = fmt.Errorf("experiments: index %d: %w", i, err)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i, ok := grab()
				if !ok {
					return
				}
				if err := fn(worker, i); err != nil {
					fail(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// gridInt64 returns up to points values spaced evenly up to max
// inclusive. Integer division makes several consecutive grid points
// collapse to the same value (and the leading ones to zero) whenever
// points > max; those zeros and duplicates are dropped, so the result
// is strictly increasing and at most min(points, max) long.
func gridInt64(max, points int) []int64 {
	if points < 2 {
		points = 2
	}
	out := make([]int64, 0, points)
	var prev int64
	for i := 0; i < points; i++ {
		v := int64(i+1) * int64(max) / int64(points)
		if v == 0 || v == prev {
			continue
		}
		out = append(out, v)
		prev = v
	}
	return out
}

// toFloats converts for plotting.
func toFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
