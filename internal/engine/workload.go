package engine

import (
	"fmt"
	"sort"

	"bwcs/internal/sim"
)

// Workload describes one application (tenant) sharing the platform. The
// paper schedules exactly one application per tree; a Config carrying
// Workloads schedules several concurrently: every task is tagged with the
// application it belongs to, the root keeps one pool per application, and
// each send or compute decision that consumes a task picks the
// application by weighted round-robin (protocol.PickTenant) before the
// paper's bandwidth-centric child priority decides where the task goes.
// Tagging never perturbs the aggregate schedule: child selection, buffer
// growth and decay all depend only on untagged totals, so a
// multi-application run completes tasks at exactly the times a single
// application of the same total size would.
type Workload struct {
	// App names the application; names must be unique and non-empty.
	App string
	// Tasks is the number of tasks this application brings.
	Tasks int64
	// Weight is the application's sharing weight; the weighted round-robin
	// dispatches tasks of concurrently eligible applications in proportion
	// to their weights. Zero means 1 (protocol.Weight).
	Weight int64
	// Release is the simulated time at which the application's pool opens
	// at the root; zero releases it at the start. Releases let tenants
	// join a platform mid-run.
	Release sim.Time
}

// AppResult is the per-application slice of a multi-workload Result.
type AppResult struct {
	// App, Weight and Release echo the workload (Weight normalized: the
	// zero value reports as 1).
	App     string
	Weight  int64
	Release sim.Time
	// Tasks is the application's task count; Completions[k] is the time
	// its (k+1)'th task completed, ascending. Every application's tasks
	// all complete: len(Completions) == Tasks.
	Tasks       int64
	Completions []sim.Time
	// Requeued counts this application's tasks returned to the root's
	// pool by departures and re-dispatched.
	Requeued int64
}

// MidRunShares measures each workload's fraction of a multi-workload
// run's completions in the middle of the run, the window (lo, hi] between
// its 20th and 80th percentile completion, clear of ramp-up and drain;
// when that window holds none (tiny trees) the shares are over the whole
// run. It is a function, not a Result method, so the bwcs facade's
// SimResult does not grow.
func MidRunShares(res *Result) (shares []float64, lo, hi sim.Time) {
	n := len(res.Completions)
	lo, hi = res.Completions[n/5], res.Completions[n*4/5]
	per := make([]int64, len(res.Apps))
	var total int64
	for i, ar := range res.Apps {
		per[i] = int64(CountBetween(ar.Completions, lo, hi))
		total += per[i]
	}
	if total == 0 {
		for i, ar := range res.Apps {
			per[i] = int64(len(ar.Completions))
			total += per[i]
		}
	}
	shares = make([]float64, len(per))
	for i := range per {
		shares[i] = float64(per[i]) / float64(max(total, 1))
	}
	return shares, lo, hi
}

// CountBetween counts the times in (lo, hi] of the ascending ts.
func CountBetween(ts []sim.Time, lo, hi sim.Time) int {
	a := sort.Search(len(ts), func(i int) bool { return ts[i] > lo })
	b := sort.Search(len(ts), func(i int) bool { return ts[i] > hi })
	return b - a
}

// validateWorkloads checks the Workloads field of a Config.
func validateWorkloads(ws []Workload, tasks int64) error {
	if len(ws) == 0 {
		return nil
	}
	if tasks != 0 {
		return fmt.Errorf("engine: set Tasks or Workloads, not both")
	}
	seen := make(map[string]bool, len(ws))
	for i, w := range ws {
		if w.App == "" {
			return fmt.Errorf("engine: workload %d has no app name", i)
		}
		if seen[w.App] {
			return fmt.Errorf("engine: duplicate workload app %q", w.App)
		}
		seen[w.App] = true
		if w.Tasks < 0 {
			return fmt.Errorf("engine: workload %q: negative task count %d", w.App, w.Tasks)
		}
		if w.Weight < 0 {
			return fmt.Errorf("engine: workload %q: negative weight %d", w.App, w.Weight)
		}
		if w.Release < 0 {
			return fmt.Errorf("engine: workload %q: negative release time %d", w.App, w.Release)
		}
	}
	return nil
}

// onAppRelease opens application app's pool at its scheduled release
// time; the root may immediately have work for waiting children.
func (e *engine) onAppRelease(app int32) {
	n := e.workloads[app].Tasks
	e.nodes[0].occApp[app] += n
	e.nodes[0].core.Refill(n)
	e.trySchedule(0)
}
