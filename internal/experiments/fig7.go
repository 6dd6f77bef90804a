package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/steady"
	"bwcs/internal/textplot"
)

// Fig7Scenario is one curve of the paper's Figure 7: a run on the
// Figure 1 platform, optionally mutating P1's weights mid-run.
type Fig7Scenario struct {
	Name string
	// Completions[k] is when task k+1 finished; the cumulative-completion
	// curve of Figure 7 plots (time, k+1).
	Completions []sim.Time
	// OptimalBefore and OptimalAfter are the optimal steady-state rates of
	// the platform before and after the mutation (equal when there is no
	// mutation); Figure 7's dashed lines have these slopes.
	OptimalBefore rational.Rat
	OptimalAfter  rational.Rat
	// Tail is the exact periodic steady state of the completions after the
	// mutation point (steady.Detect); its Rate is compared with
	// OptimalAfter in rational, never as a float.
	Tail steady.Detection
}

// Fig7Result reproduces Figure 7: adaptability of the autonomous protocol
// to communication contention (c1: 1→3) and processor contention
// (w1: 3→1), each triggered after 200 completed tasks of a 1000-task run
// under the non-interruptible protocol with two fixed buffers (as in the
// paper's Section 4.2.3).
type Fig7Result struct {
	Tasks     int64
	MutateAt  int64
	Scenarios []Fig7Scenario
}

// Fig7 runs the adaptability experiment. tasks and mutateAt default to the
// paper's 1000 and 200 when zero.
func Fig7(tasks, mutateAt int64) (*Fig7Result, error) {
	s, err := newFigure1Scenario("fig7", tasks, mutateAt, 1000)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{Tasks: s.tasks, MutateAt: s.mutateAt}
	for _, sc := range []struct {
		name string
		mut  []engine.Mutation
	}{
		{name: "c1=1, w1=3 (baseline)"},
		{fmt.Sprintf("at %d tasks, c1=3", s.mutateAt), []engine.Mutation{{AfterTasks: s.mutateAt, Node: P1, C: 3}}},
		{fmt.Sprintf("at %d tasks, w1=1", s.mutateAt), []engine.Mutation{{AfterTasks: s.mutateAt, Node: P1, W: 1}}},
	} {
		run, _, err := s.run(sc.name, protocol.NonInterruptibleFixed(2), sc.mut...)
		if err != nil {
			return nil, err
		}
		out.Scenarios = append(out.Scenarios, run)
	}
	return out, nil
}

// figure1Scenario is the adaptability set-up Figure 7 and Reconverge
// share: an application of tasks tasks on the Figure 1 platform, with
// mutations after mutateAt completions.
type figure1Scenario struct {
	exp             string // experiment id, for errors
	tasks, mutateAt int64
}

// newFigure1Scenario fills in the defaults — defTasks tasks, mutations
// after 200 — and rejects a mutation point the run never reaches.
func newFigure1Scenario(exp string, tasks, mutateAt, defTasks int64) (figure1Scenario, error) {
	if tasks == 0 {
		tasks = defTasks
	}
	if mutateAt == 0 {
		mutateAt = 200
	}
	if mutateAt >= tasks {
		return figure1Scenario{}, fmt.Errorf("%s: mutation at %d but only %d tasks", exp, mutateAt, tasks)
	}
	return figure1Scenario{exp, tasks, mutateAt}, nil
}

// run runs p on the scenario, applying muts mid-run, and returns the
// run's Figure 7 curve and its engine result.
func (s figure1Scenario) run(name string, p protocol.Protocol, muts ...engine.Mutation) (Fig7Scenario, *engine.Result, error) {
	before, after := ExampleTree(), ExampleTree()
	for _, m := range muts {
		m.Apply(after)
	}
	res, err := engine.Run(engine.Config{
		Tree:      before,
		Protocol:  p,
		Tasks:     s.tasks,
		Mutations: muts,
	})
	if err != nil {
		return Fig7Scenario{}, nil, fmt.Errorf("%s %q: %w", s.exp, name, err)
	}
	out := Fig7Scenario{
		Name:          name,
		Completions:   res.Completions,
		OptimalBefore: optimal.Weight(before).Inv(),
		OptimalAfter:  optimal.Weight(after).Inv(),
		Tail:          steady.Detect(res.Completions[s.mutateAt:]),
	}
	return out, res, nil
}

// tailCell renders an exact tail rate beside its phase optimum opt: the
// fraction, its float and "<", "=" or ">" against opt, or "no period".
func tailCell(d steady.Detection, opt rational.Rat) string {
	if !d.Found {
		return "no period"
	}
	return fmt.Sprintf("%s %s %s", d.Rate, d.Rate.Format(5), [...]string{"<", "=", ">"}[d.Rate.Cmp(opt)+1])
}

// Render writes the Figure 7 report: the cumulative-completion chart and a
// table of exact tail rates against per-phase optimal rates.
func (r *Fig7Result) Render(w io.Writer) error {
	chart := textplot.NewChart("Figure 7: adaptability on the Figure 1 platform (cumulative completions)", 72, 20).
		Labels("timesteps", "tasks completed")
	for _, sc := range r.Scenarios {
		xs := make([]float64, len(sc.Completions))
		ys := make([]float64, len(sc.Completions))
		for i, c := range sc.Completions {
			xs[i] = float64(c)
			ys[i] = float64(i + 1)
		}
		chart.Line(sc.Name, xs, ys)
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-28s %14s %14s  %s\n", "scenario", "opt before", "opt after", "tail rate")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%-28s %14s %14s  %s\n",
			sc.Name, sc.OptimalBefore.Format(5), sc.OptimalAfter.Format(5), tailCell(sc.Tail, sc.OptimalAfter))
	}
	fmt.Fprintf(w, "\nmutation after %d of %d tasks; protocol %s; tail rate = exact steady period after the mutation, vs opt after\n",
		r.MutateAt, r.Tasks, protocol.NonInterruptibleFixed(2))
	return nil
}
