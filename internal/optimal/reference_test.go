package optimal

import (
	"math/big"
	"math/rand/v2"
	"strings"
	"testing"

	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/tree"
)

// referenceWeights is the bottom-up pass as it stood before the fork was
// rewritten over unnormalised integer pairs, kept verbatim as the
// rewrite's independent oracle: every step is a big.Rat operation that
// normalises its result (about four GCDs per child), in postorder.
func referenceWeights(t *tree.Tree) []big.Rat {
	wc := &referenceCalc{sub: make([]big.Rat, t.Len())}
	t.WalkPost(func(id tree.NodeID) {
		wc.fork(t, id)
	})
	return wc.sub
}

type referenceCalc struct {
	sub  []big.Rat // W(i), exact
	kids []tree.NodeID

	rate, budget, c, need, tmp big.Rat
}

func (wc *referenceCalc) fork(t *tree.Tree, id tree.NodeID) {
	// rate accumulates 1/w0 + Σ 1/W(i) + ε/c_{p+1}; budget is the
	// remaining send-port fraction.
	rate, budget := &wc.rate, &wc.budget
	rate.SetFrac64(1, t.W(id))
	budget.SetInt64(1)
	for _, child := range wc.sortedKids(t, id) {
		sub := &wc.sub[child]
		wc.c.SetInt64(t.C(child))
		wc.need.Quo(&wc.c, sub) // port fraction to keep this subtree saturated
		if wc.need.Cmp(budget) <= 0 {
			rate.Add(rate, wc.tmp.Inv(sub))
			budget.Sub(budget, &wc.need)
			continue
		}
		// Partially fed child: leftover port fraction ε buys ε/c tasks
		// per time; everyone after starves.
		if budget.Sign() > 0 {
			rate.Add(rate, wc.tmp.Quo(budget, &wc.c))
		}
		break
	}
	res := &wc.sub[id]
	res.Inv(rate)
	if id != t.Root() {
		if wc.c.SetInt64(t.C(id)); res.Cmp(&wc.c) < 0 {
			res.Set(&wc.c)
		}
	}
}

func (wc *referenceCalc) sortedKids(t *tree.Tree, id tree.NodeID) []tree.NodeID {
	wc.kids = append(wc.kids[:0], t.Children(id)...)
	sortByComm(t, wc.kids)
	return wc.kids
}

// checkAgainstReference compares every subtree weight of one run of wc —
// numerator and denominator, so also "in lowest terms" — with the
// reference's, then Compute's SubWeight and Weight with the same.
func checkAgainstReference(t *testing.T, name string, wc *Calculator, tr *tree.Tree) {
	t.Helper()
	want := referenceWeights(tr)
	wc.run(tr)
	for id := range want {
		got := &wc.sub[id]
		if got.num.Cmp(want[id].Num()) != 0 || got.den.Cmp(want[id].Denom()) != 0 {
			t.Fatalf("%s: W(%d) = %v/%v, reference %v", name, id, &got.num, &got.den, &want[id])
		}
	}
	root := rational.FromBig(&want[tr.Root()])
	if got := wc.Weight(tr); !got.Equal(root) {
		t.Fatalf("%s: Calculator.Weight = %v, reference %v", name, got, root)
	}
	if got := Weight(tr); !got.Equal(root) {
		t.Fatalf("%s: Weight = %v, reference %v", name, got, root)
	}
}

// fig1Tree is the paper's Figure 1 platform (experiments.ExampleTree,
// which this package cannot import).
func fig1Tree() *tree.Tree {
	t := tree.New(5)
	t.AddChild(0, 3, 1)
	p2 := t.AddChild(0, 5, 2)
	t.AddChild(p2, 4, 4)
	t.AddChild(p2, 6, 6)
	p5 := t.AddChild(0, 6, 5)
	t.AddChild(p5, 1, 1)
	t.AddChild(p5, 4, 4)
	return t
}

// TestWeightsMatchReference holds the rewritten theorem to the old one
// at every node of ≥ 2,000 random trees of three populations (the
// paper's, a small-weight one where caps and ties are common, and a
// communication-bound one), of stars and chains up to 300 nodes, and of
// the Fig 1 tree — through one Calculator, so a value left over from the
// previous, larger tree would show.
func TestWeightsMatchReference(t *testing.T) {
	var wc Calculator
	checkAgainstReference(t, "fig1", &wc, fig1Tree())
	if got := Weight(fig1Tree()); !got.Equal(rat(15, 13)) {
		t.Fatalf("fig1 weight = %v, want 15/13", got)
	}
	pops := []struct {
		name  string
		p     randtree.Params
		trees int
	}{
		{"paper", randtree.Defaults(), 600},
		{"small", randtree.Params{MinNodes: 1, MaxNodes: 60, MinComm: 1, MaxComm: 6, Comp: 12}, 1000},
		{"commbound", randtree.Params{MinNodes: 2, MaxNodes: 200, MinComm: 50, MaxComm: 5000, Comp: 300}, 600},
	}
	if testing.Short() {
		pops[0].trees, pops[2].trees = 60, 60
	}
	for _, pop := range pops {
		g := randtree.New(pop.p, 24)
		for i := 0; i < pop.trees; i++ {
			checkAgainstReference(t, pop.name, &wc, g.TreeAt(24, i))
		}
	}
	rng := rand.New(rand.NewPCG(5, 5))
	w := func() int64 { return 100 + rng.Int64N(9901) }
	c := func() int64 { return 1 + rng.Int64N(100) }
	for _, n := range []int{2, 3, 7, 40, 300} {
		star, chain := tree.New(w()), tree.New(w())
		for i := 1; i < n; i++ {
			star.AddChild(0, w(), c())
			chain.AddChild(tree.NodeID(i-1), w(), c())
		}
		checkAgainstReference(t, "star", &wc, star)
		checkAgainstReference(t, "chain", &wc, chain)
	}
}

// FuzzWeightAgainstReference feeds the tree codec's text format (as
// tree.FuzzDecode does) and compares every subtree weight of whatever
// decodes with the reference's.
func FuzzWeightAgainstReference(f *testing.F) {
	var seed strings.Builder
	if err := fig1Tree().Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("bwcs-tree v1\n0 -1 5 0\n")
	f.Add("bwcs-tree v1\n0 -1 10 0\n1 0 1 1\n2 0 1 1\n")
	f.Add("bwcs-tree v1\n0 -1 7 0\n1 0 3 2\n2 1 3 9\n3 2 1 1\n4 0 9223372036854775807 9223372036854775807\n")
	var wc Calculator
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := tree.Decode(strings.NewReader(in))
		if err != nil || tr.Len() > 2000 {
			return
		}
		checkAgainstReference(t, "fuzz", &wc, tr)
	})
}
