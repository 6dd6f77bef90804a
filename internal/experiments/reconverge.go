package experiments

import (
	"fmt"
	"io"

	"bwcs/internal/engine"
	"bwcs/internal/metrics"
	"bwcs/internal/protocol"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/steady"
	"bwcs/internal/textplot"
)

// TimelineSchemaV1 identifies the timeline JSON artifact emitted by
// bwexp -exp reconverge -json; the live overlay's /timeline dump carries
// the same schema string.
const TimelineSchemaV1 = "bwcs-timeline/v1"

// ReconvergeScenario is one protocol's run of the re-convergence
// experiment: the Figure 1 platform with P1's link re-weighted (c1: 1→3)
// after MutateAt completed tasks.
type ReconvergeScenario struct {
	Name     string
	Protocol string
	// OptimalBefore and OptimalAfter are the platform's optimal
	// steady-state rates before and after the mutation.
	OptimalBefore rational.Rat
	OptimalAfter  rational.Rat
	// MutateTime is when the mutation actually fired (the completion
	// time of task MutateAt).
	MutateTime sim.Time
	Makespan   sim.Time
	// Tail is the exact periodic steady state of the completions after
	// the mutation (steady.Detect), compared with OptimalAfter in rational.
	Tail steady.Detection
	// TimeToReconverge is the completion time of Tail's first periodic
	// task minus MutateTime; meaningful only when Tail.Found.
	TimeToReconverge sim.Time
	// Rate is the run's completion rate in whole rateWindow-step windows
	// (rateSeries), a picture of the dip and recovery; no rate is judged
	// from it.
	Rate metrics.SeriesSnapshot
}

// ReconvergeResult measures time-to-re-converge: how long each protocol
// takes to settle onto an exactly periodic completion stream after the
// platform changes under it, and at what exact rate (the adaptability
// claim of Section 4.2.3, made quantitative with steady.Detect instead of
// eyeballing Figure 7's slopes).
type ReconvergeResult struct {
	Tasks     int64
	MutateAt  int64
	Scenarios []ReconvergeScenario
}

// rateWindow is the width of one point of a scenario's Rate, in sim
// timesteps.
const rateWindow = sim.Time(64)

// reconvergeProtocols are the autonomous protocols Reconverge runs.
var reconvergeProtocols = []struct {
	name  string
	proto protocol.Protocol
}{
	{"interruptible FB=3", protocol.Interruptible(3)},
	{"interruptible FB=1", protocol.Interruptible(1)},
	{"non-intr IB=1", protocol.NonInterruptible(1)},
	{"non-intr FB=2", protocol.NonInterruptibleFixed(2)},
}

// Reconverge runs the re-convergence experiment over the autonomous
// protocols. tasks and mutateAt default to 2000 and 200 when zero.
func Reconverge(tasks, mutateAt int64) (*ReconvergeResult, error) {
	s, err := newFigure1Scenario("reconverge", tasks, mutateAt, 2000)
	if err != nil {
		return nil, err
	}
	out := &ReconvergeResult{Tasks: s.tasks, MutateAt: s.mutateAt}
	for _, p := range reconvergeProtocols {
		run, res, err := s.run(p.name, p.proto, engine.Mutation{AfterTasks: s.mutateAt, Node: P1, C: 3})
		if err != nil {
			return nil, err
		}
		sc := ReconvergeScenario{
			Name:          p.name,
			Protocol:      fmt.Sprint(p.proto),
			OptimalBefore: run.OptimalBefore,
			OptimalAfter:  run.OptimalAfter,
			MutateTime:    res.Completions[s.mutateAt-1],
			Makespan:      res.Makespan,
			Tail:          run.Tail,
			Rate:          rateSeries(res.Completions, rateWindow, res.Makespan),
		}
		if sc.Tail.Found {
			sc.TimeToReconverge = res.Completions[s.mutateAt+int64(sc.Tail.Start)-1] - sc.MutateTime
		}
		out.Scenarios = append(out.Scenarios, sc)
	}
	return out, nil
}

// rateSeries is the completion rate of a run in whole windows of w
// timesteps: the point at T = t, for each multiple t of w up to makespan,
// is the count of completions in [t−w, t) divided by w. The partial
// window after the last whole one is not drawn.
func rateSeries(completions []sim.Time, w, makespan sim.Time) metrics.SeriesSnapshot {
	pts := make([]metrics.Point, 0, makespan/w)
	i := 0
	for t := w; t <= makespan; t += w {
		n := i
		for i < len(completions) && completions[i] < t {
			i++
		}
		pts = append(pts, metrics.Point{T: int64(t), V: float64(i-n) / float64(w)})
	}
	return metrics.SeriesSnapshot{Name: "rate", Resolution: int64(w), Points: pts}
}

// Render writes the re-convergence report: one rate sparkline per
// protocol (the dip-and-recover shape of Figure 7's slope change) and a
// table of exact tail rates and time-to-re-converge against the per-phase
// optimal rates.
func (r *ReconvergeResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Re-convergence after c1: 1→3 at task %d of %d (sampled every %d steps)\n\n",
		r.MutateAt, r.Tasks, rateWindow)
	for _, sc := range r.Scenarios {
		vals := make([]float64, len(sc.Rate.Points))
		for i, p := range sc.Rate.Points {
			vals[i] = p.V
		}
		fmt.Fprintf(w, "%-20s %s\n", sc.Name, textplot.Spark(vals))
	}
	fmt.Fprintf(w, "\n%-20s %10s %10s  %-19s %8s %12s\n",
		"protocol", "opt before", "opt after", "tail rate", "t_mutate", "t_reconverge")
	for _, sc := range r.Scenarios {
		reconv := "-"
		if sc.Tail.Found {
			reconv = fmt.Sprint(sc.TimeToReconverge)
		}
		fmt.Fprintf(w, "%-20s %10s %10s  %-19s %8d %12s\n",
			sc.Name, sc.OptimalBefore.Format(5), sc.OptimalAfter.Format(5),
			tailCell(sc.Tail, sc.OptimalAfter), sc.MutateTime, reconv)
	}
	fmt.Fprintln(w, "\nt_reconverge = completion time of the first task of the exact post-mutation period minus t_mutate, in sim timesteps")
	return nil
}

// JSON returns the bwcs-timeline/v1 document for this result, suitable
// for bwexp -json.
func (r *ReconvergeResult) JSON() any {
	type row struct {
		Name             string                 `json:"name"`
		Protocol         string                 `json:"protocol"`
		OptimalBefore    float64                `json:"optimalBefore"`
		OptimalAfter     float64                `json:"optimalAfter"`
		TailBatch        int                    `json:"tailBatch"`
		TailPeriod       int64                  `json:"tailPeriod"`
		MutateTime       int64                  `json:"mutateTime"`
		Makespan         int64                  `json:"makespan"`
		TimeToReconverge *int64                 `json:"timeToReconverge,omitempty"`
		Rate             metrics.SeriesSnapshot `json:"rate"`
	}
	rows := make([]row, 0, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		rw := row{
			Name:          sc.Name,
			Protocol:      sc.Protocol,
			OptimalBefore: sc.OptimalBefore.Float64(),
			OptimalAfter:  sc.OptimalAfter.Float64(),
			TailBatch:     sc.Tail.Batch,
			TailPeriod:    int64(sc.Tail.Period),
			MutateTime:    int64(sc.MutateTime),
			Makespan:      int64(sc.Makespan),
			Rate:          sc.Rate,
		}
		if sc.Tail.Found {
			t := int64(sc.TimeToReconverge)
			rw.TimeToReconverge = &t
		}
		rows = append(rows, rw)
	}
	return struct {
		Schema      string `json:"schema"`
		Experiment  string `json:"experiment"`
		Tasks       int64  `json:"tasks"`
		MutateAt    int64  `json:"mutateAt"`
		SampleEvery int64  `json:"sampleEvery"`
		Scenarios   []row  `json:"scenarios"`
	}{
		Schema: TimelineSchemaV1, Experiment: "reconverge",
		Tasks: r.Tasks, MutateAt: r.MutateAt, SampleEvery: int64(rateWindow),
		Scenarios: rows,
	}
}
