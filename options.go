package bwcs

// Functional options: the one configuration idiom shared by every
// evaluation entry point. Evaluate, EvaluateContext and EvaluateWorkloads
// take the platform, the protocol and the work as positional arguments —
// the three things every run must state — and everything else through
// Option values, mirroring the live package's Start(name, opts...). The
// positional alternative (filling a SimConfig by hand and calling
// Simulate) remains for callers that need the raw engine Result without
// the analysis, but new code should prefer the options form.

import "bwcs/internal/engine"

// SimMetrics is the engine-wide instrumentation snapshot of one run; see
// WithMetrics.
type SimMetrics = engine.Metrics

// evalSettings collects everything an evaluation can be configured with:
// the engine knobs (a SimConfig minus the positional tree/protocol/work)
// plus the analysis knobs that have no engine equivalent.
type evalSettings struct {
	cfg       SimConfig
	threshold int
	metrics   *SimMetrics
}

func newEvalSettings(opts []Option) evalSettings {
	s := evalSettings{threshold: OnsetThreshold}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// Option configures an evaluation; see the With... constructors.
type Option func(*evalSettings)

// WithSeed seeds the Random child-selection order (unused by the paper's
// deterministic protocols).
func WithSeed(seed uint64) Option {
	return func(s *evalSettings) { s.cfg.Seed = seed }
}

// WithCheckpoints snapshots platform-wide buffer statistics when the given
// completed-task counts are reached (ascending); the snapshots appear in
// Summary.Result.Checkpoints.
func WithCheckpoints(afterTasks ...int64) Option {
	return func(s *evalSettings) { s.cfg.Checkpoints = afterTasks }
}

// WithMutations applies node/edge weight changes mid-run, in ascending
// AfterTasks order (the paper's adaptability experiment).
func WithMutations(ms ...Mutation) Option {
	return func(s *evalSettings) { s.cfg.Mutations = ms }
}

// WithAttachments grafts subtrees onto the platform mid-run.
func WithAttachments(as ...AttachMutation) Option {
	return func(s *evalSettings) { s.cfg.Attachments = as }
}

// WithDepartures removes subtrees mid-run; the tasks they held are
// requeued at the root (volunteer-computing re-execution semantics).
func WithDepartures(ds ...DepartMutation) Option {
	return func(s *evalSettings) { s.cfg.Departures = ds }
}

// WithMaxSteps aborts the run after n simulator events, as a runaway
// guard for hostile inputs.
func WithMaxSteps(n uint64) Option {
	return func(s *evalSettings) { s.cfg.MaxSteps = n }
}

// WithWindow overrides the onset detector's window threshold (default
// OnsetThreshold, the paper's value): the windowed rate must hold at or
// above optimal from window threshold onward to count as reached.
func WithWindow(threshold int) Option {
	return func(s *evalSettings) { s.threshold = threshold }
}

// WithMetrics copies the run's engine-wide instrumentation snapshot into
// dst after the run completes, for callers aggregating counters across
// sweeps (SimMetrics.Add).
func WithMetrics(dst *SimMetrics) Option {
	return func(s *evalSettings) { s.metrics = dst }
}

// WithTimeline samples timeline telemetry every `every` timesteps —
// completion rate, per-link utilization, root-pool depth and (for
// EvaluateWorkloads) per-application share — into Summary.Timeline, and
// runs the convergence detector over the rate series. Sampling is off by
// default and costs the simulation nothing when off.
func WithTimeline(every Time) Option {
	return func(s *evalSettings) { s.cfg.SampleEvery = every }
}

// WithTimelineCapacity caps the stored points per timeline series
// (default 512); on overflow a series halves itself and doubles its
// resolution. Meaningful values are >= 2. Only relevant with
// WithTimeline.
func WithTimelineCapacity(capacity int) Option {
	return func(s *evalSettings) { s.cfg.TimelineCapacity = capacity }
}
