// Package optimal implements the bandwidth-centric theorem (Theorem 1 of
// the paper, from Beaumont, Carter, Ferrante, Legrand and Robert,
// IPDPS'02): the optimal steady-state task execution rate of a weighted
// platform tree, and the optimal fluid allocation that attains it.
//
// # The theorem
//
// For a single-level fork with root P0 (compute time w0, inbound
// communication time c0) and children P1..Pk with communication times
// c1 ≤ c2 ≤ ... ≤ ck and compute times w1..wk, the minimal computational
// weight of the tree (time per task; the optimal rate is its inverse) is
//
//	wtree = max(c0, 1 / (1/w0 + Σ_{i=1..p} 1/wi + ε/c_{p+1}))
//
// where p is the largest index with Σ_{i=1..p} ci/wi ≤ 1 and
// ε = 1 − Σ_{i=1..p} ci/wi (ε = 0 if p = k). Intuitively: the children
// that communicate fastest are fed until the parent's send port saturates;
// the next child is fed with the leftover port fraction ε; the rest starve
// regardless of their compute speed — hence "bandwidth-centric".
//
// # Multi-level trees
//
// A bottom-up traversal applies the fork formula at every node, replacing
// each child's compute time wi with the computational weight W(i) of the
// subtree rooted there (which already folds in that child's own inbound
// link cap, W(i) ≥ c(i)). The root has no inbound link, so its weight has
// no c0 term. All arithmetic is exact rational arithmetic: the onset
// detector compares simulated rates to these values and must not be
// perturbed by rounding.
package optimal

import (
	"fmt"
	"math/big"
	"slices"

	"bwcs/internal/rational"
	"bwcs/internal/tree"
)

// Allocation is the result of the theorem on a tree: the optimal
// steady-state weight and rate, and one optimal fluid schedule attaining
// it.
type Allocation struct {
	// TreeWeight is wtree: the steady-state time per task of the whole
	// tree. Rate is its inverse, the optimal tasks-per-time rate.
	TreeWeight rational.Rat
	Rate       rational.Rat

	// SubWeight[i] is W(i), the computational weight of the subtree rooted
	// at node i as seen through its inbound link: tasks can flow into that
	// subtree at rate at most 1/W(i).
	SubWeight []rational.Rat

	// NodeRate[i] is the rate at which node i itself computes tasks in the
	// optimal schedule. InflowRate[i] is the rate at which tasks flow into
	// the subtree rooted at i (for the root: the whole tree's rate).
	NodeRate   []rational.Rat
	InflowRate []rational.Rat

	// PortBusy[i] is the fraction of time node i's send port is busy in
	// the optimal schedule; it never exceeds 1.
	PortBusy []rational.Rat
}

// NodeClass classifies a node's role in the optimal steady state.
type NodeClass int

const (
	// Starved nodes receive no tasks at all: their subtree communicates
	// too slowly to be worth feeding.
	Starved NodeClass = iota
	// Partial nodes compute at a positive rate below their full speed.
	Partial
	// Saturated nodes compute continuously (rate = 1/w).
	Saturated
)

// String returns the lower-case name of the class.
func (c NodeClass) String() string {
	switch c {
	case Starved:
		return "starved"
	case Partial:
		return "partial"
	case Saturated:
		return "saturated"
	default:
		return fmt.Sprintf("NodeClass(%d)", int(c))
	}
}

// Class returns the classification of node id under this allocation.
func (a *Allocation) Class(t *tree.Tree, id tree.NodeID) NodeClass {
	r := a.NodeRate[id]
	if r.IsZero() {
		return Starved
	}
	if r.Equal(rational.New(1, t.W(id))) {
		return Saturated
	}
	return Partial
}

// Used reports whether node id computes any tasks in the optimal schedule.
func (a *Allocation) Used(id tree.NodeID) bool { return !a.NodeRate[id].IsZero() }

// Compute runs the theorem on t and returns the optimal allocation.
func Compute(t *tree.Tree) *Allocation {
	n := t.Len()
	a := &Allocation{
		SubWeight:  make([]rational.Rat, n),
		NodeRate:   make([]rational.Rat, n),
		InflowRate: make([]rational.Rat, n),
		PortBusy:   make([]rational.Rat, n),
	}

	// Bottom-up: subtree weights via the fork formula.
	var wc Calculator
	wc.run(t)
	for i := range a.SubWeight {
		a.SubWeight[i] = wc.weight(tree.NodeID(i))
	}
	a.TreeWeight = a.SubWeight[t.Root()]
	a.Rate = a.TreeWeight.Inv()

	// Top-down: distribute the achievable inflow. The root consumes from
	// the local task pool at the full tree rate.
	a.InflowRate[t.Root()] = a.Rate
	t.Walk(func(id tree.NodeID) bool {
		distribute(t, id, a)
		return true
	})
	return a
}

// Weight computes only wtree — the bottom-up pass of the theorem —
// without materializing the optimal schedule: a Calculator used once.
func Weight(t *tree.Tree) rational.Rat { return new(Calculator).Weight(t) }

// Calculator runs the bottom-up pass of the theorem. Its subtree weights
// and scratch integers keep their storage from one tree to the next, so a
// population sweep holds one per worker (the onset detector needs nothing
// but the optimal rate) and allocates little beyond what math/big's GCD
// does inside. The zero value is ready; a Calculator is not safe for
// concurrent use.
type Calculator struct {
	sub  []frac // W(i) in lowest terms
	kids []tree.NodeID

	// The fork at one node, over the common denominator d = Π num(W(i))
	// of the children fed so far: rate = rn/(w·d), port budget = bn/d.
	d, rn, bn          big.Int
	w, c               big.Int // the node's w; a child's c, then the node's own
	t, u, v, x, y, gcd big.Int // products, and the one GCD
	out                big.Rat
}

// frac is a positive rational num/den in lowest terms.
type frac struct{ num, den big.Int }

func (f *frac) setInt(n int64) {
	f.num.SetInt64(n)
	f.den.SetInt64(1)
}

// Weight returns wtree of t.
func (wc *Calculator) Weight(t *tree.Tree) rational.Rat {
	wc.run(t)
	return wc.weight(t.Root())
}

// weight returns W(id) of the last run.
func (wc *Calculator) weight(id tree.NodeID) rational.Rat {
	f := &wc.sub[id]
	return rational.FromBig(wc.out.SetFrac(&f.num, &f.den))
}

// run applies the fork formula at every node of t, children first: a
// child's ID is always larger than its parent's.
func (wc *Calculator) run(t *tree.Tree) {
	n := t.Len()
	wc.sub = wc.sub[:cap(wc.sub)]
	wc.sub = slices.Grow(wc.sub, max(0, n-len(wc.sub)))[:n]
	for id := tree.NodeID(n - 1); id >= 0; id-- {
		wc.fork(t, id)
	}
}

// fork applies the single-level formula at node id: it sets sub[id] to
// the subtree weight W(id) — the internal weight capped below by the
// node's own inbound communication time (except at the root, which has
// no inbound link). The arithmetic is exact and unnormalised: the sums
// run over one growing common denominator, comparisons cross-multiply,
// and the only GCD is the one that stores W(id) in lowest terms. A leaf
// and a bandwidth-capped subtree are integers and skip that too.
func (wc *Calculator) fork(t *tree.Tree, id tree.NodeID) {
	res := &wc.sub[id]
	kids := wc.sortedKids(t, id)
	if len(kids) == 0 {
		res.setInt(max(t.W(id), t.C(id)))
		return
	}
	// rate accumulates 1/w + Σ 1/W(i) + ε/c_{p+1}; budget is the
	// remaining send-port fraction.
	d, rn, bn := &wc.d, &wc.rn, &wc.bn
	w, c := wc.w.SetInt64(t.W(id)), &wc.c
	d.SetInt64(1)
	rn.SetInt64(1)
	bn.SetInt64(1)
	for _, child := range kids {
		s := &wc.sub[child]
		c.SetInt64(t.C(child))
		// The port fraction that keeps this subtree saturated is
		// c/W(i) = c·sd/sn; it fits the budget iff c·sd·d ≤ bn·sn.
		wc.t.Mul(&s.den, d)
		wc.u.Mul(bn, &s.num)
		wc.v.Mul(c, &wc.t)
		if wc.v.Cmp(&wc.u) <= 0 {
			rn.Add(wc.x.Mul(rn, &s.num), wc.y.Mul(w, &wc.t))
			bn.Sub(&wc.u, &wc.v)
			wc.x.Mul(d, &s.num)
			wc.x, wc.d = wc.d, wc.x
			continue
		}
		// Partially fed child: leftover port fraction ε buys ε/c tasks
		// per time; everyone after starves.
		if bn.Sign() > 0 {
			rn.Add(wc.x.Mul(rn, c), wc.y.Mul(bn, w))
			wc.x.Mul(d, c)
			wc.x, wc.d = wc.d, wc.x
		}
		break
	}
	// W(id) = max(c(id), 1/rate), and 1/rate = w·d/rn.
	wd := wc.y.Mul(w, d)
	if id != t.Root() {
		c.SetInt64(t.C(id))
		if wd.Cmp(wc.x.Mul(c, rn)) < 0 {
			res.setInt(t.C(id))
			return
		}
	}
	g := wc.gcd.GCD(nil, nil, wd, rn)
	res.num.Quo(wd, g)
	res.den.Quo(rn, g)
}

// sortedKids returns id's children ordered by increasing communication
// time (ties by node ID), in a buffer reused across nodes.
func (wc *Calculator) sortedKids(t *tree.Tree, id tree.NodeID) []tree.NodeID {
	wc.kids = append(wc.kids[:0], t.Children(id)...)
	sortByComm(t, wc.kids)
	return wc.kids
}

// distribute splits node id's inflow between its own CPU and its children
// in bandwidth-centric priority order, filling NodeRate, InflowRate and
// PortBusy. Children of starved/partial nodes receive what is left after
// the node's own CPU, mirroring the protocols (the local CPU has
// communication cost zero, so it has top priority).
func distribute(t *tree.Tree, id tree.NodeID, a *Allocation) {
	inflow := a.InflowRate[id]
	own := rational.Min(rational.New(1, t.W(id)), inflow)
	a.NodeRate[id] = own
	remaining := inflow.Sub(own)
	budget := rational.One()
	busy := rational.Zero()
	for _, child := range sortedByComm(t, id) {
		if remaining.Sign() <= 0 || budget.Sign() <= 0 {
			a.InflowRate[child] = rational.Zero()
			continue
		}
		c := rational.FromInt(t.C(child))
		give := rational.Min(a.SubWeight[child].Inv(), remaining)
		give = rational.Min(give, budget.Div(c))
		a.InflowRate[child] = give
		remaining = remaining.Sub(give)
		cost := c.Mul(give)
		budget = budget.Sub(cost)
		busy = busy.Add(cost)
	}
	a.PortBusy[id] = busy
}

// sortedByComm returns the children of id ordered by increasing
// communication time, breaking ties by node ID so results are
// deterministic. This is the bandwidth-centric priority order.
func sortedByComm(t *tree.Tree, id tree.NodeID) []tree.NodeID {
	kids := append([]tree.NodeID(nil), t.Children(id)...)
	sortByComm(t, kids)
	return kids
}

// sortByComm orders kids in place by increasing communication time,
// breaking ties by node ID.
func sortByComm(t *tree.Tree, kids []tree.NodeID) {
	slices.SortFunc(kids, func(a, b tree.NodeID) int {
		if ca, cb := t.C(a), t.C(b); ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
		return 0
	})
}

// Fork computes Theorem 1 directly for a single-level fork, given the
// root's inbound communication time c0 (0 when the root is the platform
// root), its compute time w0, and each child's (w, c). It exists for
// exposition and testing; Compute subsumes it.
func Fork(c0, w0 int64, children [][2]int64) rational.Rat {
	t := tree.New(w0)
	for _, wc := range children {
		t.AddChild(t.Root(), wc[0], wc[1])
	}
	internal := Compute(t).TreeWeight
	if c0 > 0 {
		return rational.Max(rational.FromInt(c0), internal)
	}
	return internal
}
