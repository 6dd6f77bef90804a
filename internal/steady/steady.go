// Package steady detects exact steady-state behaviour in completion
// streams by periodicity analysis.
//
// The paper's onset heuristic (window rate above optimal twice after
// window 300, package window) is empirical; its Section 4.1 leaves "more
// theoretically-justified decision criteria" as future work. This package
// supplies one: in steady state the completion stream is eventually
// periodic — there are integers b (tasks) and p (timesteps) with
//
//	t[k+b] = t[k] + p
//
// for every k in the steady interval, because the engine is a
// deterministic finite-state system driven by a constant task supply. The
// detector finds the smallest such b and the longest interval over which
// the relation holds exactly, yielding the steady-state rate b/p as an
// exact rational that can be compared to the optimal rate with no
// tolerance at all.
//
// The startup interval (before periodicity sets in) and the wind-down
// interval (after the root's pool drains) are automatically excluded: they
// are simply outside the detected periodic run.
package steady

import (
	"fmt"

	"bwcs/internal/rational"
	"bwcs/internal/sim"
)

// Detection is the result of periodicity analysis.
type Detection struct {
	// Found reports whether a steady interval was detected.
	Found bool
	// Batch and Period: Batch tasks complete every Period timesteps.
	Batch  int
	Period sim.Time
	// Rate is Batch/Period, exact.
	Rate rational.Rat
	// Start and End delimit the detected steady interval as 1-based task
	// indices: t[k+Batch] = t[k] + Period holds for Start <= k,
	// k+Batch <= End.
	Start, End int
}

// String summarizes the detection.
func (d Detection) String() string {
	if !d.Found {
		return "no steady state detected"
	}
	return fmt.Sprintf("steady state: %d tasks per %d timesteps (rate %s) over tasks %d..%d",
		d.Batch, d.Period, d.Rate, d.Start, d.End)
}

// Class compares a detected steady rate against the optimal rate.
type Class int

const (
	// NoSteadyState means no periodic interval was found in the horizon.
	NoSteadyState Class = iota
	// Suboptimal means a steady state exists but below the optimal rate.
	Suboptimal
	// Optimal means the detected steady rate equals the optimal rate
	// exactly.
	Optimal
	// Anomalous means the detected rate exceeds the optimal rate, which
	// the bandwidth-centric theorem rules out; it indicates a modeling
	// error and exists to surface bugs.
	Anomalous
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case NoSteadyState:
		return "no-steady-state"
	case Suboptimal:
		return "suboptimal"
	case Optimal:
		return "optimal"
	case Anomalous:
		return "anomalous"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify compares the detection against the optimal steady-state weight
// optWeight (time per task; the optimal rate is its inverse).
func (d Detection) Classify(optWeight rational.Rat) Class {
	if !d.Found {
		return NoSteadyState
	}
	opt := optWeight.Inv()
	switch d.Rate.Cmp(opt) {
	case -1:
		return Suboptimal
	case 0:
		return Optimal
	default:
		return Anomalous
	}
}

// Detect searches completions (ascending completion times, as produced by
// the engine) for the smallest-batch periodic steady interval. It tries
// every batch b from 1 to len/4 and accepts the first whose longest run
// of constant t[k+b]-t[k] covers at least max(4b, len/8) tasks. On large
// random platforms no period shows within a practical horizon, so it
// judges the Figure 7 and reconverge tails, not tree populations.
func Detect(completions []sim.Time) Detection {
	n := len(completions)
	if n < 8 {
		return Detection{}
	}
	for b := 1; b <= n/4; b++ {
		minRun := max(4*b, n/8)
		if d, ok := tryBatch(completions, b, minRun); ok {
			return d
		}
	}
	return Detection{}
}

// tryBatch looks for the longest run of constant t[k+b]-t[k] and accepts
// it if it covers at least minRun tasks.
func tryBatch(t []sim.Time, b, minRun int) (Detection, bool) {
	n := len(t)
	bestStart, bestEnd := 0, 0 // 0-based k range [bestStart, bestEnd)
	var bestP sim.Time
	runStart := 0
	for k := 1; k <= n-b; k++ {
		// delta at index k-1 (0-based): t[k-1+b] - t[k-1]
		if k < n-b {
			cur := t[k+b-1] - t[k-1]
			nxt := t[k+b] - t[k]
			if cur == nxt {
				continue
			}
		}
		// Run of equal deltas ends at k-1 (0-based run [runStart, k)).
		if k-runStart > bestEnd-bestStart {
			bestStart, bestEnd = runStart, k
			bestP = t[runStart+b] - t[runStart]
		}
		runStart = k
	}
	// Tasks covered: from bestStart+1 (1-based) through bestEnd+b.
	covered := bestEnd - bestStart + b
	if bestEnd == bestStart || covered < minRun || bestP <= 0 {
		return Detection{}, false
	}
	return Detection{
		Found:  true,
		Batch:  b,
		Period: bestP,
		Rate:   rational.New(int64(b), int64(bestP)),
		Start:  bestStart + 1,
		End:    bestEnd + b,
	}, true
}
