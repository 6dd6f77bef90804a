// Package bwcs implements autonomous bandwidth-centric scheduling of
// independent-task applications on tree-structured computing platforms,
// reproducing Kreaseck, Carter, Casanova and Ferrante, "Autonomous
// Protocols for Bandwidth-Centric Scheduling of Independent-task
// Applications" (IPDPS 2003).
//
// # Model
//
// A platform is a node-weighted, edge-weighted tree: W(i) is node i's time
// to compute one task, C(i) the time to move one task (input plus results)
// across the edge to i's parent. The root holds the application's pool of
// identical, independent tasks. Every node can simultaneously receive one
// task from its parent, send one task to one child, and compute ("base
// model").
//
// # What the library provides
//
//   - The optimal steady-state rate and fluid schedule of any platform
//     tree (the bandwidth-centric theorem), via Optimal.
//   - The paper's autonomous interruptible-communication protocol (IC),
//     distributed and request-driven, using only locally observable
//     information, simulated deterministically by Simulate.
//   - The paper's steady-state detection (sliding growing windows, exact
//     rational comparisons) applied to a run by Evaluate.
//   - The paper's random platform generator (GenerateTree) and its example
//     platform (ExampleTree).
//
// # Quick start
//
//	t := bwcs.NewTree(10)                  // root computes a task in 10
//	t.AddChild(t.Root(), 5, 1)             // fast link, medium CPU
//	t.AddChild(t.Root(), 2, 8)             // slow link, fast CPU
//	sum, err := bwcs.Evaluate(t, bwcs.IC(3), 10_000)
//	// sum.Optimal.Rate — the provably optimal steady-state rate
//	// sum.Reached      — did the run attain it, and at window sum.Onset?
//
// Simulate exposes the raw engine run without the analysis; its SimConfig
// carries the run settings (seeds, mid-run mutations, checkpoints,
// tracing). The full evaluation of the paper (every figure and table)
// lives in the bwexp command; see EXPERIMENTS.md for measured-versus-paper
// results.
package bwcs

import (
	"fmt"

	"bwcs/internal/engine"
	"bwcs/internal/experiments"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/tree"
	"bwcs/internal/window"
)

// Tree is a weighted platform tree. Build one with NewTree and AddChild,
// or generate one with GenerateTree.
type Tree = tree.Tree

// NodeID identifies a node of a Tree; the root is always 0.
type NodeID = tree.NodeID

// NewTree returns a platform holding only a root that computes one task in
// rootW timesteps.
func NewTree(rootW int64) *Tree { return tree.New(rootW) }

// TreeParams are the paper's five random-platform parameters (m, n, b, d,
// x); see DefaultTreeParams.
type TreeParams = randtree.Params

// DefaultTreeParams returns the paper's simulation parameters:
// 10..500 nodes, link times 1..100, compute times x/100..x with x=10000.
func DefaultTreeParams() TreeParams { return randtree.Defaults() }

// GenerateTree returns the index'th random platform of the deterministic
// stream identified by (params, seed). The same triple always yields the
// same tree.
func GenerateTree(params TreeParams, seed uint64, index int) *Tree {
	return randtree.TreeAt(params, seed, index)
}

// ExampleTree reconstructs the paper's Figure 1 three-site platform; the
// adaptability experiment of Figure 7 runs on it.
func ExampleTree() *Tree { return experiments.ExampleTree() }

// Allocation is the bandwidth-centric theorem's result: the optimal
// steady-state rate and one fluid schedule attaining it.
type Allocation = optimal.Allocation

// Optimal computes the optimal steady-state rate of t and the per-node
// allocation attaining it (Theorem 1 of the paper, applied bottom-up).
func Optimal(t *Tree) *Allocation { return optimal.Compute(t) }

// Protocol is an autonomous scheduling policy.
type Protocol = protocol.Protocol

// IC returns the paper's interruptible-communication protocol with fb
// fixed buffers per node: a request from a faster-communicating child
// preempts an in-flight send to a slower one; the preempted transfer
// resumes later from where it left off. The paper's headline protocol is
// IC(3).
func IC(fb int) Protocol { return protocol.Interruptible(fb) }

// SimConfig configures one simulation run; see Simulate.
type SimConfig = engine.Config

// SimResult is a completed run: completion times, per-node statistics,
// buffer checkpoints.
type SimResult = engine.Result

// AttachMutation grafts a subtree onto the platform mid-run (dynamic
// overlays).
type AttachMutation = engine.AttachMutation

// Simulate executes an independent-task application on a platform tree
// under an autonomous protocol, deterministically.
func Simulate(cfg SimConfig) (*SimResult, error) { return engine.Run(cfg) }

// Summary bundles everything Evaluate learns about one run.
type Summary struct {
	Result  *SimResult
	Optimal *Allocation
	// Reached reports whether the run attained the optimal steady-state
	// rate under the paper's detector; Onset is the window index where.
	Reached bool
	Onset   int
}

// Evaluate runs protocol p on tree t for the given number of tasks and
// analyzes the run against the tree's optimal steady-state rate.
//
// Evaluate uses the inclusive onset detector (windowed rate at or above
// optimal, twice after the paper's threshold window): platforms whose
// schedules are exactly periodic at the optimal rate never go strictly
// above it, so the paper's strict criterion — designed for large random
// trees whose discrete completions wiggle around the rate — would
// misclassify them. The experiment harness (bwexp, internal/experiments)
// keeps the strict detector for paper fidelity.
func Evaluate(t *Tree, p Protocol, tasks int64) (*Summary, error) {
	if tasks < 2 {
		return nil, fmt.Errorf("bwcs: need at least 2 tasks, got %d", tasks)
	}
	res, err := engine.Run(SimConfig{Tree: t, Protocol: p, Tasks: tasks})
	if err != nil {
		return nil, err
	}
	opt := optimal.Compute(t)
	series, err := window.New(res.Completions, opt.TreeWeight)
	if err != nil {
		return nil, err
	}
	s := &Summary{Result: res, Optimal: opt}
	s.Onset, s.Reached = series.OnsetInclusive(window.DefaultThreshold)
	return s, nil
}
