package tree

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// buildSample returns the tree
//
//	0 (w=5)
//	├── 1 (w=3, c=1)
//	│   ├── 3 (w=2, c=2)
//	│   └── 4 (w=4, c=6)
//	└── 2 (w=6, c=5)
func buildSample() *Tree {
	t := New(5)
	a := t.AddChild(t.Root(), 3, 1)
	t.AddChild(t.Root(), 6, 5)
	t.AddChild(a, 2, 2)
	t.AddChild(a, 4, 6)
	return t
}

func TestBuildAndAccessors(t *testing.T) {
	tr := buildSample()
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	if tr.Root() != 0 {
		t.Fatalf("Root = %d, want 0", tr.Root())
	}
	if got := tr.Parent(0); got != None {
		t.Fatalf("Parent(root) = %d, want None", got)
	}
	if got := tr.Parent(3); got != 1 {
		t.Fatalf("Parent(3) = %d, want 1", got)
	}
	if got := tr.W(4); got != 4 {
		t.Fatalf("W(4) = %d, want 4", got)
	}
	if got := tr.C(4); got != 6 {
		t.Fatalf("C(4) = %d, want 6", got)
	}
	if got := tr.C(0); got != 0 {
		t.Fatalf("C(root) = %d, want 0", got)
	}
	if kids := tr.Children(1); len(kids) != 2 || kids[0] != 3 || kids[1] != 4 {
		t.Fatalf("Children(1) = %v", kids)
	}
	if !tr.IsLeaf(2) || tr.IsLeaf(1) {
		t.Fatalf("IsLeaf wrong")
	}
	if tr.Depth(0) != 0 || tr.Depth(1) != 1 || tr.Depth(4) != 2 {
		t.Fatalf("Depth wrong: %d %d %d", tr.Depth(0), tr.Depth(1), tr.Depth(4))
	}
	if tr.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d, want 2", tr.MaxDepth())
	}
	if !tr.Valid(4) || tr.Valid(5) || tr.Valid(-1) {
		t.Fatalf("Valid wrong")
	}
}

func TestConstructionPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero root w", func() { New(0) }},
		{"neg child w", func() { buildSample().AddChild(0, -1, 1) }},
		{"zero child c", func() { buildSample().AddChild(0, 1, 0) }},
		{"bad parent", func() { buildSample().AddChild(99, 1, 1) }},
		{"setW zero", func() { buildSample().SetW(1, 0) }},
		{"setC root", func() { buildSample().SetC(0, 1) }},
		{"setC zero", func() { buildSample().SetC(1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSetWeights(t *testing.T) {
	tr := buildSample()
	tr.SetW(1, 9)
	tr.SetC(1, 7)
	if tr.W(1) != 9 || tr.C(1) != 7 {
		t.Fatalf("SetW/SetC not applied: w=%d c=%d", tr.W(1), tr.C(1))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after set: %v", err)
	}
}

func TestWalkPreorder(t *testing.T) {
	tr := buildSample()
	var order []NodeID
	tr.Walk(func(id NodeID) bool {
		order = append(order, id)
		return true
	})
	want := []NodeID{0, 1, 3, 4, 2}
	if len(order) != len(want) {
		t.Fatalf("Walk visited %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Walk visited %v, want %v", order, want)
		}
	}
	// Early stop.
	n := 0
	tr.Walk(func(NodeID) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Walk early stop visited %d, want 2", n)
	}
}

func TestWalkPostorder(t *testing.T) {
	tr := buildSample()
	pos := map[NodeID]int{}
	i := 0
	tr.WalkPost(func(id NodeID) {
		pos[id] = i
		i++
	})
	if i != tr.Len() {
		t.Fatalf("WalkPost visited %d nodes, want %d", i, tr.Len())
	}
	tr.Walk(func(id NodeID) bool {
		for _, k := range tr.Children(id) {
			if pos[k] >= pos[id] {
				t.Fatalf("WalkPost visited child %d after parent %d", k, id)
			}
		}
		return true
	})
}

func TestSubtree(t *testing.T) {
	tr := buildSample()
	got := tr.Subtree(1)
	want := []NodeID{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Subtree(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subtree(1) = %v, want %v", got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := buildSample()
	cp := tr.Clone()
	cp.SetW(1, 100)
	cp.AddChild(2, 8, 8)
	if tr.W(1) != 3 {
		t.Fatalf("clone mutation leaked into original W")
	}
	if tr.Len() != 5 || cp.Len() != 6 {
		t.Fatalf("clone sizes wrong: %d %d", tr.Len(), cp.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("original invalid after clone mutation: %v", err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestAttach(t *testing.T) {
	tr := buildSample()
	sub := New(7)
	sub.AddChild(sub.Root(), 8, 9)
	id := tr.Attach(2, sub, 4)
	if tr.Len() != 7 {
		t.Fatalf("Len after attach = %d, want 7", tr.Len())
	}
	if tr.Parent(id) != 2 || tr.C(id) != 4 || tr.W(id) != 7 {
		t.Fatalf("attached root wrong: parent=%d c=%d w=%d", tr.Parent(id), tr.C(id), tr.W(id))
	}
	kid := tr.Children(id)[0]
	if tr.W(kid) != 8 || tr.C(kid) != 9 || tr.Depth(kid) != 3 {
		t.Fatalf("attached child wrong: w=%d c=%d depth=%d", tr.W(kid), tr.C(kid), tr.Depth(kid))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after attach: %v", err)
	}
	// The source tree must be untouched (deep copy semantics).
	if sub.Len() != 2 {
		t.Fatalf("attach mutated source tree")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := buildSample()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Corrupt internals directly.
	bad := tr.Clone()
	bad.nodes[3].parent = 2 // child list of 2 does not contain 3
	if err := bad.Validate(); err == nil {
		t.Fatalf("Validate accepted inconsistent parent link")
	}
	bad2 := tr.Clone()
	bad2.nodes[2].w = 0
	if err := bad2.Validate(); err == nil {
		t.Fatalf("Validate accepted zero weight")
	}
	bad3 := tr.Clone()
	bad3.nodes[4].depth = 9
	if err := bad3.Validate(); err == nil {
		t.Fatalf("Validate accepted wrong depth")
	}
	bad4 := &Tree{}
	if err := bad4.Validate(); err == nil {
		t.Fatalf("Validate accepted empty tree")
	}
}

// randomTree builds a random valid tree for property tests.
func randomTree(rng *rand.Rand, n int) *Tree {
	tr := New(rng.Int64N(100) + 1)
	for i := 1; i < n; i++ {
		parent := NodeID(rng.IntN(tr.Len()))
		tr.AddChild(parent, rng.Int64N(100)+1, rng.Int64N(100)+1)
	}
	return tr
}

func TestPropertyRandomTreesValidate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 100; i++ {
		tr := randomTree(rng, rng.IntN(200)+1)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree invalid: %v", err)
		}
		// Depth of every child is parent depth + 1; walk covers all nodes.
		visited := 0
		tr.Walk(func(id NodeID) bool {
			visited++
			if p := tr.Parent(id); p != None && tr.Depth(id) != tr.Depth(p)+1 {
				t.Fatalf("depth invariant violated at %d", id)
			}
			return true
		})
		if visited != tr.Len() {
			t.Fatalf("walk visited %d of %d", visited, tr.Len())
		}
	}
}

// TestResetReusesStorageWithoutLeakingChildren: a tree rebuilt after a
// Reset equals the same tree built fresh (no child of the earlier, larger
// tree survives), rebuilding the same shape allocates nothing, and a
// Clone shares no children storage with the arena it was cloned from.
func TestResetReusesStorageWithoutLeakingChildren(t *testing.T) {
	encode := func(tr *Tree) string {
		var sb strings.Builder
		if err := tr.Encode(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	big := func(tr *Tree) {
		for i := 0; i < 40; i++ {
			tr.AddChild(NodeID(i/3), int64(i+1), int64(i+2))
		}
	}
	small := func(tr *Tree) {
		a := tr.AddChild(0, 3, 1)
		tr.AddChild(a, 2, 2)
	}
	arena := New(9)
	big(arena)
	arena.Reset(5)
	small(arena)
	fresh := New(5)
	small(fresh)
	if err := arena.Validate(); err != nil {
		t.Fatalf("reset tree invalid: %v", err)
	}
	if got, want := encode(arena), encode(fresh); got != want {
		t.Fatalf("tree after Reset:\n%s\nbuilt fresh:\n%s", got, want)
	}
	if kids := arena.Children(2); len(kids) != 0 {
		t.Fatalf("leaf 2 kept children %v from before the Reset", kids)
	}

	clone := arena.Clone()
	id := clone.AddChild(2, 7, 7) // node 2 is a leaf whose slot had children before
	arena.AddChild(0, 1, 1)
	arena.AddChild(2, 8, 8)
	if kids := clone.Children(2); len(kids) != 1 || kids[0] != id {
		t.Fatalf("clone's node 2 has children %v, want [%d]: Clone shares children storage with the arena", kids, id)
	}

	if allocs := testing.AllocsPerRun(20, func() {
		arena.Reset(9)
		big(arena)
	}); allocs != 0 {
		t.Fatalf("rebuilding a shape the arena has held: %v allocs, want 0", allocs)
	}
}
