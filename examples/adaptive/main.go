// Adaptive: the paper's Section 4.2.3 adaptability scenario. The platform
// changes while the application runs — network contention triples P1's
// communication time, then later the contention clears and P1's CPU
// becomes three times faster — and the autonomous protocol re-converges to
// each phase's optimal rate without any global coordination, because every
// decision uses only locally measured information.
package main

import (
	"fmt"
	"log"

	"bwcs"
)

func main() {
	const tasks = 3000
	t := bwcs.ExampleTree()

	contention := bwcs.Mutation{AfterTasks: 1000, Node: 1, C: 3}    // network contention hits P1
	upgrade := bwcs.Mutation{AfterTasks: 2000, Node: 1, C: 1, W: 1} // contention clears; P1's CPU frees up

	// Optimal rates of the three phases: the platform as each mutation
	// leaves it.
	phase1 := bwcs.Optimal(t).Rate
	mutated := bwcs.ExampleTree()
	contention.Apply(mutated)
	phase2 := bwcs.Optimal(mutated).Rate
	upgrade.Apply(mutated)
	phase3 := bwcs.Optimal(mutated).Rate

	res, err := bwcs.Simulate(bwcs.SimConfig{
		Tree:      t,
		Protocol:  bwcs.NonICFixed(2),
		Tasks:     tasks,
		Mutations: []bwcs.Mutation{contention, upgrade},
	})
	if err != nil {
		log.Fatal(err)
	}

	rate := func(from, to int64) float64 {
		dt := res.Completions[to-1] - res.Completions[from-1]
		return float64(to-from) / float64(dt)
	}
	report := func(name string, measured float64, opt bwcs.Rat) {
		fmt.Printf("%-34s measured %.5f  optimal %.5f  (%.1f%%)\n",
			name, measured, opt.Float64(), 100*measured/opt.Float64())
	}
	fmt.Printf("3000 tasks on the Figure 1 platform, %s; platform mutates at 1000 and 2000 tasks\n\n",
		bwcs.NonICFixed(2))
	// Skip the first quarter of each phase so startup and re-adaptation
	// transients do not blur the steady-state comparison.
	report("phase 1 (c1=1, w1=3)", rate(250, 1000), phase1)
	report("phase 2 (c1=3, w1=3, contended)", rate(1250, 2000), phase2)
	report("phase 3 (c1=1, w1=1, upgraded)", rate(2250, 3000), phase3)
	fmt.Printf("\ntotal makespan %d timesteps; the protocol tracked every phase's optimum autonomously\n", res.Makespan)
}
