package bwcs_test

import (
	"fmt"

	"bwcs"
)

// The bandwidth-centric theorem in action: the fast-linked slow CPU is
// preferred over the fast CPU behind a slow link, and leftover bandwidth
// feeds the latter partially.
func ExampleOptimal() {
	t := bwcs.NewTree(4)
	t.AddChild(t.Root(), 2, 1) // w=2 behind a fast link
	t.AddChild(t.Root(), 2, 2) // same CPU behind a slower link

	opt := bwcs.Optimal(t)
	fmt.Println("optimal rate:", opt.Rate)
	for id := bwcs.NodeID(0); int(id) < t.Len(); id++ {
		fmt.Printf("node %d: %s at %s tasks/timestep\n", id, opt.Class(t, id), opt.NodeRate[id])
	}
	// Output:
	// optimal rate: 1
	// node 0: saturated at 1/4 tasks/timestep
	// node 1: saturated at 1/2 tasks/timestep
	// node 2: partial at 1/4 tasks/timestep
}

// Simulating the paper's headline protocol (interruptible communication,
// three fixed buffers) and checking that it attains the optimal steady
// state under the paper's windowed detector.
func ExampleEvaluate() {
	t := bwcs.NewTree(4)
	t.AddChild(t.Root(), 2, 1)
	t.AddChild(t.Root(), 2, 2)

	sum, err := bwcs.Evaluate(t, bwcs.IC(3), 2000)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("optimal rate:", sum.Optimal.Rate)
	fmt.Println("reached optimal:", sum.Reached, "at window", sum.Onset)
	// Output:
	// optimal rate: 1
	// reached optimal: true at window 303
}

// Generating a platform from the paper's random distribution; the same
// (params, seed, index) triple always yields the same tree.
func ExampleGenerateTree() {
	t := bwcs.GenerateTree(bwcs.DefaultTreeParams(), 2003, 0)
	fmt.Println("valid:", t.Validate() == nil)
	fmt.Println("deterministic:", t.Len() == bwcs.GenerateTree(bwcs.DefaultTreeParams(), 2003, 0).Len())
	// Output:
	// valid: true
	// deterministic: true
}
