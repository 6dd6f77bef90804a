package randtree

import (
	"slices"
	"strings"
	"testing"

	"bwcs/internal/tree"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"defaults", Defaults(), true},
		{"single node", Params{MinNodes: 1, MaxNodes: 1, MinComm: 1, MaxComm: 1, Comp: 1}, true},
		{"min nodes zero", Params{MinNodes: 0, MaxNodes: 5, MinComm: 1, MaxComm: 2, Comp: 10}, false},
		{"max < min nodes", Params{MinNodes: 10, MaxNodes: 5, MinComm: 1, MaxComm: 2, Comp: 10}, false},
		{"comm zero", Params{MinNodes: 1, MaxNodes: 5, MinComm: 0, MaxComm: 2, Comp: 10}, false},
		{"max < min comm", Params{MinNodes: 1, MaxNodes: 5, MinComm: 3, MaxComm: 2, Comp: 10}, false},
		{"comp zero", Params{MinNodes: 1, MaxNodes: 5, MinComm: 1, MaxComm: 2, Comp: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok != (err == nil) {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestWithComp(t *testing.T) {
	p := Defaults().WithComp(500)
	if p.Comp != 500 {
		t.Fatalf("WithComp did not apply")
	}
	if p.MinNodes != 10 || p.MaxNodes != 500 {
		t.Fatalf("WithComp clobbered other fields")
	}
}

func TestGeneratedTreesAreValid(t *testing.T) {
	g := New(Defaults(), 42)
	for i := 0; i < 30; i++ {
		tr := g.Tree()
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d invalid: %v", i, err)
		}
		p := g.Params()
		if tr.Len() < p.MinNodes || tr.Len() > p.MaxNodes {
			t.Fatalf("tree %d has %d nodes, want [%d,%d]", i, tr.Len(), p.MinNodes, p.MaxNodes)
		}
		lo := p.minComp()
		tr.Walk(func(id tree.NodeID) bool {
			if w := tr.W(id); w < lo || w > p.Comp {
				t.Fatalf("tree %d node %d weight %d outside [%d,%d]", i, id, w, lo, p.Comp)
			}
			if id != tr.Root() {
				if c := tr.C(id); c < p.MinComm || c > p.MaxComm {
					t.Fatalf("tree %d node %d comm %d outside [%d,%d]", i, id, c, p.MinComm, p.MaxComm)
				}
			}
			return true
		})
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(Defaults(), 7), New(Defaults(), 7)
	for i := 0; i < 5; i++ {
		ta, tb := a.Tree(), b.Tree()
		if ta.Len() != tb.Len() {
			t.Fatalf("tree %d sizes differ: %d vs %d", i, ta.Len(), tb.Len())
		}
		for id := tree.NodeID(0); int(id) < ta.Len(); id++ {
			if ta.Parent(id) != tb.Parent(id) || ta.W(id) != tb.W(id) || ta.C(id) != tb.C(id) {
				t.Fatalf("tree %d node %d differs between same-seed generators", i, id)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	ta, tb := New(Defaults(), 1).Tree(), New(Defaults(), 2).Tree()
	if ta.Len() == tb.Len() {
		same := true
		for id := tree.NodeID(0); int(id) < ta.Len(); id++ {
			if ta.W(id) != tb.W(id) || ta.Parent(id) != tb.Parent(id) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("different seeds produced identical trees")
		}
	}
}

func TestTreeAtIndependentOfOrder(t *testing.T) {
	// TreeAt(i) must not depend on which trees were generated before it.
	t5 := TreeAt(Defaults(), 99, 5)
	t3 := TreeAt(Defaults(), 99, 3)
	t5again := TreeAt(Defaults(), 99, 5)
	if t5.Len() != t5again.Len() {
		t.Fatalf("TreeAt not reproducible")
	}
	for id := tree.NodeID(0); int(id) < t5.Len(); id++ {
		if t5.W(id) != t5again.W(id) || t5.Parent(id) != t5again.Parent(id) || t5.C(id) != t5again.C(id) {
			t.Fatalf("TreeAt(5) differs across calls")
		}
	}
	if t3.Len() == t5.Len() && t3.Len() > 1 && t3.W(1) == t5.W(1) && t3.C(1) == t5.C(1) {
		// Extremely unlikely for distinct indices with 500-node trees;
		// treat as failure to key streams by index.
		t.Fatalf("TreeAt(3) and TreeAt(5) look identical")
	}
}

func TestSmallCompClampsWeights(t *testing.T) {
	p := Params{MinNodes: 5, MaxNodes: 5, MinComm: 1, MaxComm: 1, Comp: 3}
	g := New(p, 1)
	tr := g.Tree()
	tr.Walk(func(id tree.NodeID) bool {
		if w := tr.W(id); w < 1 || w > 3 {
			t.Fatalf("weight %d outside [1,3]", w)
		}
		return true
	})
}

func TestSingleNodeTree(t *testing.T) {
	p := Params{MinNodes: 1, MaxNodes: 1, MinComm: 1, MaxComm: 10, Comp: 100}
	tr := New(p, 3).Tree()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

// TestPopulationCharacteristics checks the paper's reported population
// shape: with default parameters the trees "had an average of 245 nodes,
// and ranged in depth from 2 to 82". With a uniform node count in [10,500]
// the average must be near 255; depths must span a wide range.
func TestPopulationCharacteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("population statistics need many trees")
	}
	g := New(Defaults(), 2003)
	const trees = 300
	var sumNodes, minDepth, maxDepth int
	minDepth = 1 << 30
	for i := 0; i < trees; i++ {
		tr := g.Tree()
		sumNodes += tr.Len()
		d := tr.MaxDepth()
		if d < minDepth {
			minDepth = d
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	avg := float64(sumNodes) / trees
	if avg < 200 || avg > 310 {
		t.Fatalf("average nodes %.1f, want near 255", avg)
	}
	if minDepth > 6 {
		t.Fatalf("min depth %d, expected shallow trees to occur", minDepth)
	}
	if maxDepth < 30 {
		t.Fatalf("max depth %d, expected deep trees to occur", maxDepth)
	}
}

func BenchmarkGenerateDefault(b *testing.B) {
	g := New(Defaults(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Tree()
	}
}

// TestReusedGeneratorMatchesFreshTreeAt: one generator asked for
// population indexes in an order that goes large → small → large returns,
// each time, a valid tree whose codec bytes equal a fresh TreeAt's — no
// node, child list or union-find state of an earlier tree shows through
// the arena — and once warm it generates without allocating.
func TestReusedGeneratorMatchesFreshTreeAt(t *testing.T) {
	encode := func(tr *tree.Tree) string {
		var sb strings.Builder
		if err := tr.Encode(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	const seed, n = 99, 60
	p := Defaults()
	bySize := make([]int, n)
	for i := range bySize {
		bySize[i] = i
	}
	size := func(i int) int { return TreeAt(p, seed, i).Len() }
	slices.SortFunc(bySize, func(a, b int) int { return size(b) - size(a) })
	var order []int // largest, smallest, second largest, second smallest, ...
	for k := 0; k < n/2; k++ {
		order = append(order, bySize[k], bySize[n-1-k])
	}
	if a, b, c := size(order[0]), size(order[1]), size(order[2]); a <= b || c <= b {
		t.Fatalf("order does not go large → small → large: %d, %d, %d nodes", a, b, c)
	}
	g := New(p, 1)
	for _, i := range order {
		got := g.TreeAt(seed, i)
		if err := got.Validate(); err != nil {
			t.Fatalf("tree %d from the reused generator: %v", i, err)
		}
		if encode(got) != encode(TreeAt(p, seed, i)) {
			t.Fatalf("tree %d from the reused generator differs from a fresh TreeAt", i)
		}
	}
	at := 0
	if allocs := testing.AllocsPerRun(n, func() {
		g.TreeAt(seed, order[at%n])
		at++
	}); allocs != 0 {
		t.Fatalf("warm generator: %v allocs per tree, want 0", allocs)
	}
}
