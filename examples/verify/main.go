// Verify: the repository's correctness story on one small platform, end
// to end — four independent methods agree on what "optimal" means and
// that the autonomous protocol achieves it:
//
//  1. the bandwidth-centric theorem computes the optimal steady-state
//     rate analytically;
//  2. exhaustive search over every valid schedule confirms no schedule
//     beats the rate (within the theory's additive startup constant);
//  3. the autonomous protocol — using only local information — matches
//     the exhaustive optimum's makespan to within that same constant;
//  4. periodicity detection proves the protocol's steady-state rate
//     equals the theorem's rate exactly, not approximately.
package main

import (
	"fmt"
	"log"

	"bwcs"

	"bwcs/internal/brute"
	"bwcs/internal/steady"
)

func main() {
	// A platform small enough for exhaustive search but rich enough to be
	// interesting: the port can't keep every child saturated.
	t := bwcs.NewTree(4)
	t.AddChild(t.Root(), 2, 1) // saturable
	t.AddChild(t.Root(), 2, 2) // partially fed (gets the leftover port)

	// 1. The theorem.
	opt := bwcs.Optimal(t)
	fmt.Printf("1. theorem: optimal steady-state rate = %s tasks/timestep\n", opt.Rate)

	// 2. Exhaustive search, small horizon.
	const smallTasks = 8
	var slack int64
	for id := bwcs.NodeID(0); int(id) < t.Len(); id++ {
		slack += t.W(id) + t.C(id)
	}
	res, err := brute.Search(t, smallTasks, brute.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bound := float64(smallTasks) / opt.Rate.Float64()
	fmt.Printf("2. exhaustive search over all schedules: %d tasks need >= %d timesteps\n", smallTasks, res.Makespan)
	fmt.Printf("   steady-state bound %.1f - startup constant %d <= %d  (theorem respected; %d states searched)\n",
		bound, slack, res.Makespan, res.States)

	// 3. The autonomous protocol on the same instance.
	small, err := bwcs.Simulate(bwcs.SimConfig{Tree: t, Protocol: bwcs.IC(3), Tasks: smallTasks})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. autonomous IC FB=3 finishes the same %d tasks in %d timesteps (optimum %d, gap %d <= %d)\n",
		smallTasks, small.Makespan, res.Makespan, int64(small.Makespan)-int64(res.Makespan), slack)

	// 4. Long horizon: exact periodicity.
	long, err := bwcs.Evaluate(t, bwcs.IC(3), 4000)
	if err != nil {
		log.Fatal(err)
	}
	det := steady.Detect(long.Result.Completions)
	fmt.Printf("4. over 4000 tasks the protocol settles into %s\n", det)
	fmt.Printf("   detected rate %s == theorem rate %s: %v — exact, no tolerances\n",
		det.Rate, opt.Rate, det.Classify(opt.TreeWeight) == steady.Optimal)
}
