package optimal

import (
	"math/rand/v2"
	"testing"

	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/tree"
)

func rat(num, den int64) rational.Rat { return rational.New(num, den) }

func TestSingleNode(t *testing.T) {
	tr := tree.New(5)
	a := Compute(tr)
	if !a.TreeWeight.Equal(rational.FromInt(5)) {
		t.Fatalf("TreeWeight = %v, want 5", a.TreeWeight)
	}
	if !a.Rate.Equal(rat(1, 5)) {
		t.Fatalf("Rate = %v, want 1/5", a.Rate)
	}
	if !a.NodeRate[0].Equal(rat(1, 5)) {
		t.Fatalf("NodeRate = %v, want 1/5", a.NodeRate[0])
	}
	if a.Class(tr, 0) != Saturated {
		t.Fatalf("Class = %v, want saturated", a.Class(tr, 0))
	}
}

func TestForkAllSaturated(t *testing.T) {
	// w0=10 with two children (w=2, c=1): c/w = 1/2 each, port exactly
	// saturates; rate = 1/10 + 1/2 + 1/2 = 11/10.
	tr := tree.New(10)
	tr.AddChild(0, 2, 1)
	tr.AddChild(0, 2, 1)
	a := Compute(tr)
	if !a.TreeWeight.Equal(rat(10, 11)) {
		t.Fatalf("TreeWeight = %v, want 10/11", a.TreeWeight)
	}
	for id := tree.NodeID(0); id < 3; id++ {
		if a.Class(tr, id) != Saturated {
			t.Fatalf("node %d class %v, want saturated", id, a.Class(tr, id))
		}
	}
	if !a.PortBusy[0].Equal(rational.One()) {
		t.Fatalf("PortBusy = %v, want 1", a.PortBusy[0])
	}
}

func TestForkStarvation(t *testing.T) {
	// Both children are fast but the port only feeds one: the second
	// starves no matter its speed ("bandwidth-centric").
	tr := tree.New(10)
	tr.AddChild(0, 1, 1) // saturating this child uses the whole port
	tr.AddChild(0, 1, 1) // starved
	a := Compute(tr)
	if !a.TreeWeight.Equal(rat(10, 11)) {
		t.Fatalf("TreeWeight = %v, want 10/11", a.TreeWeight)
	}
	if a.Class(tr, 1) != Saturated {
		t.Fatalf("child 1 class %v, want saturated", a.Class(tr, 1))
	}
	if a.Class(tr, 2) != Starved {
		t.Fatalf("child 2 class %v, want starved", a.Class(tr, 2))
	}
	if a.Used(2) {
		t.Fatalf("starved child reported as used")
	}
}

func TestForkPartialChild(t *testing.T) {
	// w0=4; child1 (w=2,c=1) needs 1/2 the port; child2 (w=2,c=2) would
	// need all of it, gets ε=1/2: rate = 1/4 + 1/2 + (1/2)/2 = 1.
	tr := tree.New(4)
	c1 := tr.AddChild(0, 2, 1)
	c2 := tr.AddChild(0, 2, 2)
	a := Compute(tr)
	if !a.TreeWeight.Equal(rational.One()) {
		t.Fatalf("TreeWeight = %v, want 1", a.TreeWeight)
	}
	if a.Class(tr, c1) != Saturated {
		t.Fatalf("child1 %v, want saturated", a.Class(tr, c1))
	}
	if a.Class(tr, c2) != Partial {
		t.Fatalf("child2 %v, want partial", a.Class(tr, c2))
	}
	if !a.NodeRate[c2].Equal(rat(1, 4)) {
		t.Fatalf("child2 rate %v, want 1/4", a.NodeRate[c2])
	}
	if !a.PortBusy[0].Equal(rational.One()) {
		t.Fatalf("PortBusy = %v, want 1", a.PortBusy[0])
	}
}

func TestLinkCapPropagates(t *testing.T) {
	// B is very fast (w=1) behind A, but A's inbound link (c=2) caps the
	// whole subtree: W(A) = max(2, 100/101) = 2.
	tr := tree.New(100)
	a1 := tr.AddChild(0, 100, 2)
	tr.AddChild(a1, 1, 1)
	a := Compute(tr)
	if !a.SubWeight[a1].Equal(rational.FromInt(2)) {
		t.Fatalf("SubWeight(A) = %v, want 2", a.SubWeight[a1])
	}
	// Root: 1/100 + 1/2 = 51/100.
	if !a.TreeWeight.Equal(rat(100, 51)) {
		t.Fatalf("TreeWeight = %v, want 100/51", a.TreeWeight)
	}
}

func TestPriorityByCommNotCompute(t *testing.T) {
	// The slow-computing child with the fast link is preferred over the
	// fast-computing child with the slow link.
	tr := tree.New(1000)
	slowCPU := tr.AddChild(0, 100, 1) // fast link
	fastCPU := tr.AddChild(0, 1, 100) // slow link
	a := Compute(tr)
	if a.InflowRate[slowCPU].IsZero() {
		t.Fatalf("fast-link child got nothing")
	}
	if !a.InflowRate[slowCPU].Equal(rat(1, 100)) {
		t.Fatalf("fast-link child inflow %v, want 1/100", a.InflowRate[slowCPU])
	}
	// Port left: 1 - 1*(1/100) = 99/100; fastCPU gets min(1/100... W =
	// max(100,1)=100) -> 1/100 of ... budget/c = (99/100)/100.
	if a.InflowRate[fastCPU].IsZero() {
		t.Fatalf("slow-link child should still get leftover bandwidth")
	}
}

func TestTieBreakDeterminism(t *testing.T) {
	tr := tree.New(7)
	tr.AddChild(0, 3, 5)
	tr.AddChild(0, 4, 5) // same c, higher id
	a1 := Compute(tr)
	a2 := Compute(tr)
	for i := range a1.NodeRate {
		if !a1.NodeRate[i].Equal(a2.NodeRate[i]) {
			t.Fatalf("non-deterministic allocation at node %d", i)
		}
	}
}

func TestFork(t *testing.T) {
	// Same as TestForkPartialChild via the direct API.
	got := Fork(0, 4, [][2]int64{{2, 1}, {2, 2}})
	if !got.Equal(rational.One()) {
		t.Fatalf("Fork = %v, want 1", got)
	}
	// With an inbound cap larger than the internal weight, c0 wins.
	got = Fork(3, 4, [][2]int64{{2, 1}, {2, 2}})
	if !got.Equal(rational.FromInt(3)) {
		t.Fatalf("Fork with c0=3 = %v, want 3", got)
	}
}

func TestChainTree(t *testing.T) {
	// root(w=2) -> a(w=2,c=1) -> b(w=2,c=1): each node saturates,
	// rate = 3/2, and every link is under capacity.
	tr := tree.New(2)
	a1 := tr.AddChild(0, 2, 1)
	tr.AddChild(a1, 2, 1)
	a := Compute(tr)
	if !a.Rate.Equal(rat(3, 2)) {
		t.Fatalf("Rate = %v, want 3/2", a.Rate)
	}
	for id := tree.NodeID(0); int(id) < tr.Len(); id++ {
		if a.Class(tr, id) != Saturated {
			t.Fatalf("node %d not saturated", id)
		}
	}
}

func TestNodeClassString(t *testing.T) {
	if Starved.String() != "starved" || Partial.String() != "partial" || Saturated.String() != "saturated" {
		t.Fatalf("NodeClass strings wrong")
	}
	if NodeClass(42).String() != "NodeClass(42)" {
		t.Fatalf("unknown class string wrong")
	}
}

// checkInvariants asserts the structural properties every allocation must
// satisfy, on any tree.
func checkInvariants(t *testing.T, tr *tree.Tree, a *Allocation) {
	t.Helper()
	one := rational.One()
	sum := rational.Zero()
	for id := tree.NodeID(0); int(id) < tr.Len(); id++ {
		w := rational.FromInt(tr.W(id))
		if a.NodeRate[id].Sign() < 0 {
			t.Fatalf("node %d negative rate %v", id, a.NodeRate[id])
		}
		if w.Inv().Cmp(a.NodeRate[id]) < 0 {
			t.Fatalf("node %d rate %v exceeds 1/w = %v", id, a.NodeRate[id], w.Inv())
		}
		if one.Cmp(a.PortBusy[id]) < 0 {
			t.Fatalf("node %d port busy %v > 1", id, a.PortBusy[id])
		}
		if id != tr.Root() {
			c := rational.FromInt(tr.C(id))
			if a.SubWeight[id].Cmp(c) < 0 {
				t.Fatalf("node %d subtree weight %v below link weight %v", id, a.SubWeight[id], c)
			}
			if a.SubWeight[id].Inv().Cmp(a.InflowRate[id]) < 0 {
				t.Fatalf("node %d inflow %v exceeds subtree capacity %v", id, a.InflowRate[id], a.SubWeight[id].Inv())
			}
			// Used nodes must have a fed parent chain.
			if !a.InflowRate[id].IsZero() && a.InflowRate[tr.Parent(id)].IsZero() && tr.Parent(id) != tr.Root() {
				t.Fatalf("node %d fed while parent %d is not", id, tr.Parent(id))
			}
		}
		sum = sum.Add(a.NodeRate[id])
		// Conservation at each node: inflow = own compute + handed down.
		down := rational.Zero()
		for _, k := range tr.Children(id) {
			down = down.Add(a.InflowRate[k])
		}
		if !a.InflowRate[id].Equal(a.NodeRate[id].Add(down)) {
			t.Fatalf("node %d conservation: inflow %v != own %v + down %v", id, a.InflowRate[id], a.NodeRate[id], down)
		}
	}
	if !sum.Equal(a.Rate) {
		t.Fatalf("Σ node rates = %v, want %v", sum, a.Rate)
	}
}

func TestPropertyInvariantsOnRandomTrees(t *testing.T) {
	g := randtree.New(randtree.Params{MinNodes: 1, MaxNodes: 80, MinComm: 1, MaxComm: 50, Comp: 500}, 31)
	for i := 0; i < 60; i++ {
		tr := g.Tree()
		a := Compute(tr)
		checkInvariants(t, tr, a)
		// Bounds: the rate is at least the root alone and at most all CPUs
		// running flat out.
		if a.Rate.Cmp(rational.New(1, tr.W(tr.Root()))) < 0 {
			t.Fatalf("rate below root-only rate")
		}
		all := rational.Zero()
		tr.Walk(func(id tree.NodeID) bool {
			all = all.Add(rational.New(1, tr.W(id)))
			return true
		})
		if all.Cmp(a.Rate) < 0 {
			t.Fatalf("rate %v above sum of CPU rates %v", a.Rate, all)
		}
	}
}

func TestPropertyMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g := randtree.New(randtree.Params{MinNodes: 2, MaxNodes: 40, MinComm: 2, MaxComm: 50, Comp: 200}, 77)
	for i := 0; i < 40; i++ {
		tr := g.Tree()
		before := Compute(tr).Rate

		// Speeding up one node's CPU never hurts.
		faster := tr.Clone()
		id := tree.NodeID(rng.IntN(tr.Len()))
		faster.SetW(id, (tr.W(id)+1)/2)
		if Compute(faster).Rate.Cmp(before) < 0 {
			t.Fatalf("tree %d: faster CPU at %d reduced the optimal rate", i, id)
		}

		// Speeding up one link never hurts.
		if tr.Len() > 1 {
			faster2 := tr.Clone()
			id2 := tree.NodeID(rng.IntN(tr.Len()-1) + 1)
			faster2.SetC(id2, (tr.C(id2)+1)/2)
			if Compute(faster2).Rate.Cmp(before) < 0 {
				t.Fatalf("tree %d: faster link at %d reduced the optimal rate", i, id2)
			}
		}

		// Adding a child never hurts.
		grown := tr.Clone()
		grown.AddChild(tree.NodeID(rng.IntN(tr.Len())), 10, 10)
		if Compute(grown).Rate.Cmp(before) < 0 {
			t.Fatalf("tree %d: adding a node reduced the optimal rate", i)
		}
	}
}

// TestPropertyPruneStarved: deleting every subtree the optimal schedule
// sends no tasks changes nothing optimal — the rate, and each surviving
// node's rate, stay exactly equal. (The protocol's completion stream does
// change: starved nodes still compute tasks.)
func TestPropertyPruneStarved(t *testing.T) {
	p := randtree.Defaults()
	pruned := 0
	for i := 0; i < 400; i++ {
		tr := randtree.TreeAt(p, 2003, i)
		a := Compute(tr)
		// Keep the root and every fed node; walk order puts a parent
		// before its children, and a fed node's parent is fed.
		kept := tree.New(tr.W(tr.Root()))
		newID := map[tree.NodeID]tree.NodeID{tr.Root(): kept.Root()}
		tr.Walk(func(id tree.NodeID) bool {
			if id != tr.Root() && !a.InflowRate[id].IsZero() {
				newID[id] = kept.AddChild(newID[tr.Parent(id)], tr.W(id), tr.C(id))
			}
			return true
		})
		if kept.Len() == tr.Len() {
			continue
		}
		pruned++
		b := Compute(kept)
		if !b.Rate.Equal(a.Rate) {
			t.Fatalf("tree %d: pruning starved subtrees moved the rate %v -> %v", i, a.Rate, b.Rate)
		}
		for id, nid := range newID {
			if !b.NodeRate[nid].Equal(a.NodeRate[id]) {
				t.Fatalf("tree %d: node %d's rate moved %v -> %v", i, id, a.NodeRate[id], b.NodeRate[nid])
			}
		}
	}
	t.Logf("%d of 400 trees had a starved subtree", pruned)
	if pruned < 100 {
		t.Fatalf("only %d of 400 trees had a starved subtree; the check is near vacuous", pruned)
	}
}

func TestPropertyForkMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 60; i++ {
		w0 := rng.Int64N(100) + 1
		k := rng.IntN(6)
		children := make([][2]int64, k)
		tr := tree.New(w0)
		for j := range children {
			w := rng.Int64N(100) + 1
			c := rng.Int64N(30) + 1
			children[j] = [2]int64{w, c}
			tr.AddChild(0, w, c)
		}
		if got, want := Fork(0, w0, children), Compute(tr).TreeWeight; !got.Equal(want) {
			t.Fatalf("Fork = %v, Compute = %v", got, want)
		}
	}
}

func BenchmarkComputeDefaultTree(b *testing.B) {
	tr := randtree.New(randtree.Defaults(), 1).Tree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compute(tr)
	}
}
