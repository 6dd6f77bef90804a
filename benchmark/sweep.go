package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"bwcs/internal/engine"
	"bwcs/internal/experiments"
	"bwcs/internal/optimal"
	"bwcs/internal/randtree"
	"bwcs/internal/sim"
	"bwcs/internal/tree"
	"bwcs/internal/window"
)

// sweepSpec sizes a sweep workload: the population is the first trees
// trees of randtree.Defaults() at the run's seed, each simulated under
// the four Fig 4 protocols. The set-up sweep runs the first warmTrees of
// them at warmTasks tasks: time per simulation differs from tree to tree
// (a 15-tree set-up took 0.33 s at one seed and 0.46 s at another), so
// set-up spends its time on many trees rather than on long simulations.
type sweepSpec struct {
	trees     int
	tasks     int64
	threshold int
	warmTrees int
	warmTasks int64
}

// warmUp is the workload's whole set-up.
func (s sweepSpec) warmUp(e env) error {
	o := s.options(e, s.warmTrees, e.workers)
	o.Tasks = s.warmTasks
	_, err := sweepOnce(o)
	return err
}

// protoKeys names Fig4Protocols() in metric names, in order.
var protoKeys = []string{"nonic", "ic1", "ic2", "ic3"}

func (s sweepSpec) options(e env, trees, workers int) experiments.Options {
	o := experiments.Paper()
	o.Trees, o.Tasks, o.Threshold = trees, s.tasks, s.threshold
	o.Seed, o.Workers = e.seed, workers
	return o
}

// popSummary is everything a sweep's consumers read from one protocol's
// population, in a form two runs can be compared on bit for bit.
type popSummary struct {
	Protocol       string
	Trees, Reached int
	MedianOnset    int64
	MaxNodeBuffers int64
	MaxNodeUsed    int64
	TotalBuffers   int64
	AtMostBuffers  []float64 // Table 1: reached using at most n buffers, per Table1Buckets
	// Engine is the summed engine.Metrics with EventAllocs folded into
	// FreeListHits: their split depends on worker partition, their sum
	// does not.
	Engine engine.Metrics
}

func summarize(label string, agg *experiments.PopulationAgg, m engine.Metrics) popSummary {
	m.FreeListHits += m.EventAllocs
	m.EventAllocs = 0
	s := popSummary{Protocol: label, Trees: agg.Trees, Reached: agg.Reached, MedianOnset: agg.MedianOnset(),
		MaxNodeBuffers: agg.MaxNodeBuffersMax, MaxNodeUsed: agg.MaxNodeUsedMax, TotalBuffers: agg.TotalBuffersMax,
		Engine: m}
	for _, n := range experiments.Table1Buckets {
		s.AtMostBuffers = append(s.AtMostBuffers, agg.ReachedWithAtMostBuffers(n))
	}
	return s
}

// sweepOnce runs the experiments package's own streamed sweep (Fig 4 +
// Table 1) and reduces it to summaries.
func sweepOnce(o experiments.Options) ([]popSummary, error) {
	r, err := experiments.PaperScale(o)
	if err != nil {
		return nil, err
	}
	var out []popSummary
	for i := range r.Fig4.Populations {
		p := &r.Fig4.Populations[i]
		out = append(out, summarize(p.Protocol.Label, p.Agg, p.Sweep.Engine))
	}
	return out, nil
}

// golden is the committed expectation for a sweep at the default seed.
type golden struct {
	Trees       int
	Tasks       int64
	Threshold   int
	Seed        uint64
	Populations []popSummary
}

func goldenPath(name string) string { return filepath.Join("benchmark", "golden", name+".json") }

// checkGolden compares against the committed file when this run is the
// one it describes (default seed, full size); other runs have no golden.
func checkGolden(name string, spec sweepSpec, e env, got []popSummary, out *outcome) error {
	if e.updateGolden {
		return writeJSON(goldenPath(name), golden{spec.trees, spec.tasks, spec.threshold, e.seed, got}, false)
	}
	if e.seed != defaultSeed || e.tiny {
		return nil
	}
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		return err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("%s: %w", goldenPath(name), err)
	}
	if g.Trees != spec.trees || g.Tasks != spec.tasks || g.Threshold != spec.threshold || g.Seed != e.seed {
		return fmt.Errorf("%s is for another size or seed; rerun with -update-golden", goldenPath(name))
	}
	comparePops("golden", g.Populations, got, out)
	return nil
}

// comparePops charges every simulation of a mismatching population as a
// failed op.
func comparePops(what string, want, got []popSummary, out *outcome) {
	if len(want) != len(got) {
		out.fail(out.attempted, "%s: %d populations, got %d", what, len(want), len(got))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			out.fail(int64(got[i].Trees), "%s: %s differs:\n    want %+v\n    got  %+v", what, got[i].Protocol, want[i], got[i])
		}
	}
}

func runSweep(name string, spec sweepSpec, e env) (*outcome, error) {
	if e.trace {
		return traceSweep(name, spec, e)
	}
	out := newOutcome()
	setups, err := timeSetups(e, func() error { return spec.warmUp(e) }, func() {})
	if err != nil {
		return nil, err
	}
	o := spec.options(e, spec.trees, e.workers)
	sims := int64(spec.trees * len(protoKeys))
	var m meter
	var first []popSummary
	for m.elapsed() < e.seconds {
		var pops []popSummary
		var err error
		m.time(func() { pops, err = sweepOnce(o) })
		if err != nil {
			return nil, err
		}
		out.attempted += sims
		if first == nil {
			first = pops
			if err := checkGolden(name, spec, e, pops, out); err != nil {
				return nil, err
			}
		} else {
			comparePops("repetition", first, pops, out)
		}
	}
	for _, p := range first {
		if done := int64(p.Trees) * spec.tasks; p.Trees != spec.trees || p.Engine.ComputesDone != done {
			out.fail(int64(spec.trees), "%s: %d trees, %d tasks computed; want %d, %d", p.Protocol, p.Trees, p.Engine.ComputesDone, spec.trees, done)
		}
	}
	out.report(setups, &m, float64(sims), float64(first[3].Reached)/float64(first[3].Trees), 1)
	return out, nil
}

// traceSweep produces the sweep's per-layer ledger on the first half of
// the population: the experiments sweep at one worker and at W (scaling,
// and the reference the replay must equal), then the same per-tree
// pipeline replayed here on one worker with a span around every call
// into a layer, then the allocation and kernel probes.
func traceSweep(name string, spec sweepSpec, e env) (*outcome, error) {
	out := newOutcome()
	trees := max(1, spec.trees/2)
	sims := float64(trees * len(protoKeys))
	out.metrics["host.sleep_overshoot_us"] = sleepOvershootUS()
	if err := spec.warmUp(e); err != nil {
		return nil, err
	}

	t0 := time.Now()
	ref, err := sweepOnce(spec.options(e, trees, 1))
	if err != nil {
		return nil, err
	}
	wall1 := time.Since(t0).Seconds()
	host := startHostProbe()
	t0 = time.Now()
	if _, err := sweepOnce(spec.options(e, trees, e.workers)); err != nil {
		return nil, err
	}
	wallW := time.Since(t0).Seconds()
	host.stop(out.metrics, sims)
	out.metrics["experiments.sims_per_s.w1"] = sims / wall1
	out.metrics["experiments.scaling_eff"] = wall1 / wallW / float64(e.workers)

	tr := newTracer()
	t0 = time.Now()
	got, raw, err := replaySweep(spec.options(e, trees, 1), tr)
	if err != nil {
		return nil, err
	}
	wallReplay := time.Since(t0).Seconds()
	out.attempted = int64(sims)
	comparePops("traced pipeline vs experiments sweep", ref, got, out)

	self, count := tr.selfTimes()
	var engineNS, layers, pipeline int64
	for i, k := range protoKeys {
		ns := self["engine.Run."+k]
		engineNS += ns
		out.metrics["engine.ns_per_event."+k] = float64(ns) / float64(raw[i].Events)
	}
	for name, ns := range self {
		pipeline += ns
		if name != "sim" {
			layers += ns
		}
	}
	perSim := func(ns int64) float64 { return float64(ns) / sims }
	out.metrics["randtree.ns_per_tree"] = float64(self["randtree.TreeAt"]) / float64(count["randtree.TreeAt"])
	out.metrics["optimal.ns_per_tree"] = float64(self["optimal.Weight"]) / float64(count["optimal.Weight"])
	out.metrics["optimal.calls_per_tree"] = float64(count["optimal.Weight"]) / float64(trees)
	out.metrics["window.ns_per_sim"] = perSim(self["window"])
	out.metrics["experiments.agg_ns_per_sim"] = perSim(self["experiments.agg"])
	out.metrics["engine.events_per_sim.nonic"] = float64(raw[0].Events) / float64(trees)
	out.metrics["engine.events_per_sim.ic3"] = float64(raw[3].Events) / float64(trees)
	out.metrics["engine.interrupts_per_sim.ic3"] = float64(raw[3].SendsInterrupted) / float64(trees)
	out.metrics["engine.grows_per_sim.nonic"] = float64(raw[0].Grows) / float64(trees)
	share := func(ns int64) float64 { return float64(ns) / float64(pipeline) }
	out.metrics["engine.share"] = share(engineNS)
	out.metrics["optimal.share"] = share(self["optimal.Weight"])
	out.metrics["randtree.share"] = share(self["randtree.TreeAt"])
	out.metrics["window.share"] = share(self["window"])
	out.metrics["experiments.harness_share"] = 1 - float64(layers)/1e9/wall1
	out.metrics["trace.overhead_frac"] = 1 - wall1/wallReplay
	var all engine.Metrics
	for _, m := range raw {
		all.Add(m)
	}
	out.metrics["sim.peak_pending"] = float64(all.PeakPending)
	out.metrics["sim.freelist_hit_rate"] = all.FreeListHitRate()

	probeEngineAllocs(spec.options(e, min(trees, 16), 1), out.metrics)
	probeSimKernel(max(all.PeakPending, 1), pick(e.tiny, 20_000, 2_000_000), out.metrics)
	return out, tr.write(e.outDir, name, e.seed)
}

// replaySweep is the sweep's per-tree pipeline (experiments.Evaluator's,
// protocol-major like RunPopulation) with one parent span per simulation
// and one child span per call into a layer. It returns the summaries the
// experiments sweep must equal and each protocol's unfolded metrics.
func replaySweep(o experiments.Options, tr *tracer) ([]popSummary, []engine.Metrics, error) {
	runner := engine.NewRunner()
	var sums []popSummary
	var raw []engine.Metrics
	for pi, p := range experiments.Fig4Protocols() {
		agg := experiments.NewPopulationAgg()
		var em engine.Metrics
		for i := 0; i < o.Trees; i++ {
			op := uint64(pi*o.Trees + i)
			parent := tr.begin("sim", 0, op)

			id := tr.begin("randtree.TreeAt", parent, op)
			t := randtree.TreeAt(o.Params, o.Seed, i)
			tr.end(id)

			id = tr.begin("engine.Run."+protoKeys[pi], parent, op)
			res, err := runner.Run(engine.Config{Tree: t, Protocol: p, Tasks: o.Tasks, Seed: o.Seed + uint64(i)})
			tr.end(id)
			if err != nil {
				return nil, nil, fmt.Errorf("tree %d under %v: %w", i, p, err)
			}

			id = tr.begin("optimal.Weight", parent, op)
			w := optimal.Weight(t)
			tr.end(id)

			id = tr.begin("window", parent, op)
			series, err := window.New(res.Completions, w)
			if err != nil {
				return nil, nil, fmt.Errorf("tree %d under %v: %w", i, p, err)
			}
			onset, reached := series.Onset(o.Threshold)
			tr.end(id)

			id = tr.begin("experiments.agg", parent, op)
			agg.Observe(experiments.TreeOutcome{Index: i, Nodes: t.Len(), Depth: t.MaxDepth(),
				Reached: reached, Onset: onset,
				MaxNodeBuffers: res.MaxNodeBuffers(), MaxNodeUsed: res.MaxNodeUsed(), TotalBuffers: res.TotalBuffers(),
				UsedNodes: res.UsedCount(), UsedDepth: res.UsedMaxDepth(), Makespan: res.Makespan})
			em.Add(res.Metrics)
			tr.end(id)

			tr.end(parent)
		}
		raw = append(raw, em)
		sums = append(sums, summarize(p.Label, agg, em))
	}
	return sums, raw, nil
}

// probeEngineAllocs counts heap allocations of warm Runner.Run calls:
// trees are built first and one pass warms the runner, so the measured
// pass sees only what the engine allocates per simulation.
func probeEngineAllocs(o experiments.Options, into map[string]float64) {
	trees := make([]*tree.Tree, o.Trees)
	for i := range trees {
		trees[i] = randtree.TreeAt(o.Params, o.Seed, i)
	}
	runner := engine.NewRunner()
	pass := func() {
		for _, p := range experiments.Fig4Protocols() {
			for i, t := range trees {
				// A failure here would already have failed the sweep above.
				_, _ = runner.Run(engine.Config{Tree: t, Protocol: p, Tasks: o.Tasks, Seed: o.Seed + uint64(i)})
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	sims := float64(len(trees) * len(protoKeys))
	into["engine.allocs_per_sim"] = float64(after.Mallocs-before.Mallocs) / sims
	into["engine.bytes_per_sim"] = float64(after.TotalAlloc-before.TotalAlloc) / sims
}

// kernelLoad is a no-op handler that keeps the heap at its size: every
// fired event schedules one successor at a pseudo-random delay.
type kernelLoad struct {
	s   *sim.Simulator
	rng uint64
}

func (k *kernelLoad) delay() sim.Time {
	k.rng = k.rng*6364136223846793005 + 1442695040888963407
	return sim.Time(k.rng>>33) % 10_000
}

func (k *kernelLoad) Handle(*sim.Event) { k.s.Schedule(k.delay(), 0, 0, 0) }

// probeSimKernel times the event kernel alone at the engine's observed
// heap size: the floor under engine.ns_per_event (the difference is
// engine dispatch). A cancel is timed as a schedule + cancel pair.
func probeSimKernel(pending int, steps int, into map[string]float64) {
	k := &kernelLoad{rng: 1}
	k.s = sim.New(k)
	for i := 0; i < pending; i++ {
		k.s.Schedule(k.delay(), 0, 0, 0)
	}
	k.s.Run(uint64(steps / 10)) // warm the free list
	t0 := time.Now()
	k.s.Run(uint64(steps))
	into["sim.ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / float64(steps)
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		k.s.Cancel(k.s.Schedule(k.delay(), 0, 0, 0))
	}
	into["sim.ns_per_cancel"] = float64(time.Since(t0).Nanoseconds()) / float64(steps)
}
