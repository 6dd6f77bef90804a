// Package randtree implements the paper's random platform generator
// (Section 4.1).
//
// Each tree is described by five parameters (m, n, b, d, x):
//
//   - the tree has a random number of nodes between m and n;
//   - after creating the nodes, edges are chosen one by one between two
//     randomly chosen nodes, provided the edge does not create a cycle,
//     until the nodes form a single tree;
//   - each link gets a random task communication time between b and d;
//   - each node gets a random task computation time between x/100 and x.
//
// All distributions are uniform, matching the paper. The paper's default
// parameters are m=10, n=500, b=1, d=100, x=10000 (Defaults), which
// produced trees averaging 245 nodes with depths from 2 to 82; this
// generator reproduces those characteristics (see the package tests).
//
// Generation is deterministic given a seed, so experiment sweeps are
// reproducible and individual trees can be regenerated from their index.
package randtree

import (
	"fmt"
	"math/rand/v2"

	"bwcs/internal/tree"
)

// Params holds the five generator parameters of the paper plus a seed.
type Params struct {
	MinNodes int   // m: minimum number of nodes (inclusive)
	MaxNodes int   // n: maximum number of nodes (inclusive)
	MinComm  int64 // b: minimum task communication time (inclusive)
	MaxComm  int64 // d: maximum task communication time (inclusive)
	Comp     int64 // x: task computation times are uniform in [x/100, x]
}

// Defaults returns the paper's simulation parameters:
// m=10, n=500, b=1, d=100, x=10000.
func Defaults() Params {
	return Params{MinNodes: 10, MaxNodes: 500, MinComm: 1, MaxComm: 100, Comp: 10_000}
}

// WithComp returns p with the computation parameter x replaced. The
// paper's Figure 5 and Table 2 sweep x over {500, 1000, 5000, 10000}.
func (p Params) WithComp(x int64) Params {
	p.Comp = x
	return p
}

// Validate reports whether the parameters describe a generable platform.
func (p Params) Validate() error {
	if p.MinNodes < 1 {
		return fmt.Errorf("randtree: MinNodes %d < 1", p.MinNodes)
	}
	if p.MaxNodes < p.MinNodes {
		return fmt.Errorf("randtree: MaxNodes %d < MinNodes %d", p.MaxNodes, p.MinNodes)
	}
	if p.MinComm < 1 {
		return fmt.Errorf("randtree: MinComm %d < 1", p.MinComm)
	}
	if p.MaxComm < p.MinComm {
		return fmt.Errorf("randtree: MaxComm %d < MinComm %d", p.MaxComm, p.MinComm)
	}
	if p.Comp < 1 {
		return fmt.Errorf("randtree: Comp %d < 1", p.Comp)
	}
	return nil
}

// minComp returns the lower bound of the computation-time range, x/100,
// clamped to at least 1 so weights stay positive for small x.
func (p Params) minComp() int64 {
	lo := p.Comp / 100
	if lo < 1 {
		lo = 1
	}
	return lo
}

// Generator produces random trees into one arena: the tree it returns,
// the union-find, the adjacency lists and the BFS tables are its own and
// are reused by the next Tree or TreeAt call, which therefore invalidates
// the previous tree (Clone one to keep it). Once it has built its largest
// tree it allocates nothing. It is not safe for concurrent use; give each
// goroutine its own Generator.
type Generator struct {
	params Params
	pcg    *rand.PCG
	rng    *rand.Rand
	t      *tree.Tree

	parent []int32 // union-find
	rank   []int8
	edges  []int32       // accepted edges (u, v), in acceptance order
	off    []int32       // adj[u] is nbr[off[u]:off[u+1]] ...
	nbr    []int32       // ... in the order u's edges were accepted
	ids    []tree.NodeID // generation index -> tree ID, None until reached
	queue  []int32       // BFS order
}

// New returns a deterministic generator for the given parameters and seed.
// It panics if the parameters do not validate; generator parameters are
// chosen by code, not by external input.
func New(p Params, seed uint64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	pcg := rand.NewPCG(seed, 0x9e3779b97f4a7c15)
	return &Generator{params: p, pcg: pcg, rng: rand.New(pcg), t: tree.New(1)}
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.params }

// uniform returns a uniform random value in [lo, hi].
func (g *Generator) uniform(lo, hi int64) int64 {
	return lo + g.rng.Int64N(hi-lo+1)
}

// Tree generates the next random tree of the generator's stream.
//
// The construction follows the paper: nodes are created first, then random
// edges are accepted whenever they join two distinct components (union-
// find), until a spanning tree forms. Node 0 is designated the root (the
// data repository) and the tree is oriented away from it.
func (g *Generator) Tree() *tree.Tree {
	n := int(g.uniform(int64(g.params.MinNodes), int64(g.params.MaxNodes)))
	g.spanningEdges(n)

	// Orient the undirected spanning tree away from node 0 by BFS, mapping
	// generation indices to dense tree IDs.
	w := func() int64 { return g.uniform(g.params.minComp(), g.params.Comp) }
	c := func() int64 { return g.uniform(g.params.MinComm, g.params.MaxComm) }

	t := g.t
	t.Reset(w())
	g.ids = resize(g.ids, n)
	for i := range g.ids {
		g.ids[i] = tree.None
	}
	g.ids[0] = t.Root()
	g.queue = append(g.queue[:0], 0)
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if g.ids[v] != tree.None {
				continue
			}
			g.ids[v] = t.AddChild(g.ids[u], w(), c())
			g.queue = append(g.queue, v)
		}
	}
	return t
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// spanningEdges fills off/nbr with the adjacency lists of a uniform-ish
// random spanning structure built by the paper's accept/reject process:
// repeatedly pick two random nodes and connect them if they are in
// different components.
func (g *Generator) spanningEdges(n int) {
	g.parent, g.rank = resize(g.parent, n), resize(g.rank, n)
	parent, rank := g.parent, g.rank
	for i := range parent {
		parent[i], rank[i] = int32(i), 0
	}
	find := func(a int32) int32 {
		for parent[a] != a {
			parent[a] = parent[parent[a]] // path halving
			a = parent[a]
		}
		return a
	}

	// off[u+1] counts u's edges while they are drawn, then is summed.
	g.off = resize(g.off, n+1)
	clear(g.off)
	deg := g.off[1:]
	g.edges = g.edges[:0]
	for len(g.edges) < 2*(n-1) {
		u := int32(g.rng.IntN(n))
		v := int32(g.rng.IntN(n))
		if u == v {
			continue
		}
		ru, rv := find(u), find(v)
		if ru == rv {
			continue
		}
		if rank[ru] < rank[rv] {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		if rank[ru] == rank[rv] {
			rank[ru]++
		}
		g.edges = append(g.edges, u, v)
		deg[u]++
		deg[v]++
	}
	for u := 0; u < n; u++ {
		g.off[u+1] += g.off[u]
	}
	// Fill each list in acceptance order; parent is free to be the cursor.
	g.nbr = resize(g.nbr, len(g.edges))
	next := parent
	copy(next, g.off[:n])
	for i := 0; i < len(g.edges); i += 2 {
		u, v := g.edges[i], g.edges[i+1]
		g.nbr[next[u]], g.nbr[next[v]] = v, u
		next[u]++
		next[v]++
	}
}

// TreeAt regenerates the i'th tree of the population keyed by seed: each
// tree has its own PCG stream keyed by (seed, i), so tree i is the same
// whatever was generated before it and however many workers share a
// sweep. The generator's own stream (New's seed) is lost.
func (g *Generator) TreeAt(seed uint64, i int) *tree.Tree {
	g.pcg.Seed(seed, uint64(i)*0xbf58476d1ce4e5b9+1)
	return g.Tree()
}

// TreeAt is Generator.TreeAt on a throwaway generator: the tree it
// returns is the caller's to keep.
func TreeAt(p Params, seed uint64, i int) *tree.Tree {
	return New(p, seed).TreeAt(seed, i)
}
