// Package tree implements the platform model of the paper: a node-weighted,
// edge-weighted tree T = (V, E, w, c) describing a heterogeneous computing
// platform organized as an overlay network.
//
// Each node i is a compute resource with weight W(i), the time it takes to
// compute one application task. Each non-root node also carries the weight
// C(i) of the edge to its parent: the total time to send one task's input
// data down that edge and return its results. Larger weights mean slower
// resources. The root holds the application's task pool (the data
// repository, "data starts & ends here" in the paper's Figure 1).
//
// Trees are mutable — the paper's adaptability experiments change node and
// edge weights mid-run, and its future-work section calls for dynamically
// growing overlays, which Attach and Detach support — but the topology is
// always a rooted tree by construction: nodes are added under an existing
// parent, so cycles cannot arise.
package tree

import (
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node within a Tree. IDs are dense indices: a tree
// with n nodes uses IDs 0..n-1, and the root is always ID 0.
type NodeID int32

// None is the parent of the root node.
const None NodeID = -1

// node is the internal per-node record.
type node struct {
	parent   NodeID
	children []NodeID
	w        int64 // compute time per task, > 0
	c        int64 // communication time to parent per task, > 0 (unused for root)
	depth    int32 // cached distance from root
}

// Tree is a rooted, weighted platform tree. The zero value is not usable;
// construct with New.
type Tree struct {
	nodes []node
}

// New returns a tree containing only a root with compute weight rootW.
// It panics if rootW is not positive.
func New(rootW int64) *Tree {
	t := &Tree{nodes: make([]node, 1)}
	t.Reset(rootW)
	return t
}

// AddChild adds a new leaf under parent with compute weight w and
// communication weight c, returning its ID. It panics if parent is not a
// valid node or the weights are not positive; programmatic tree
// construction with bad arguments is a bug, not a runtime condition.
func (t *Tree) AddChild(parent NodeID, w, c int64) NodeID {
	t.mustHave(parent)
	if w <= 0 {
		panic(fmt.Sprintf("tree: compute weight %d must be positive", w))
	}
	if c <= 0 {
		panic(fmt.Sprintf("tree: communication weight %d must be positive", c))
	}
	// The slot beyond len is zero, or a node from before a Reset whose
	// children storage is taken over empty (Grow moves those along).
	id := NodeID(len(t.nodes))
	t.nodes = slices.Grow(t.nodes, 1)[:id+1]
	n := &t.nodes[id]
	*n = node{
		parent:   parent,
		children: n.children[:0],
		w:        w,
		c:        c,
		depth:    t.nodes[parent].depth + 1,
	}
	t.nodes[parent].children = append(t.nodes[parent].children, id)
	return id
}

// Reset empties t to a lone root with compute weight rootW, keeping the
// node table and every node's children storage for the AddChild calls
// that follow: a generator that builds one tree after another into the
// same Tree stops allocating once it has seen its largest. Everything
// read from t before the Reset is invalid after it.
func (t *Tree) Reset(rootW int64) {
	if rootW <= 0 {
		panic(fmt.Sprintf("tree: root compute weight %d must be positive", rootW))
	}
	t.nodes = t.nodes[:1]
	t.nodes[0] = node{parent: None, children: t.nodes[0].children[:0], w: rootW}
}

func (t *Tree) mustHave(id NodeID) {
	if id < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("tree: no node %d (tree has %d nodes)", id, len(t.nodes)))
	}
}

// Root returns the ID of the root node, which is always 0.
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// Valid reports whether id names a node of t.
func (t *Tree) Valid(id NodeID) bool { return id >= 0 && int(id) < len(t.nodes) }

// Parent returns the parent of id, or None for the root.
func (t *Tree) Parent(id NodeID) NodeID {
	t.mustHave(id)
	return t.nodes[id].parent
}

// Children returns the children of id in insertion order. The returned
// slice is owned by the tree and must not be modified.
func (t *Tree) Children(id NodeID) []NodeID {
	t.mustHave(id)
	return t.nodes[id].children
}

// IsLeaf reports whether id has no children.
func (t *Tree) IsLeaf(id NodeID) bool { return len(t.Children(id)) == 0 }

// W returns the compute weight of id: the time to compute one task there.
func (t *Tree) W(id NodeID) int64 {
	t.mustHave(id)
	return t.nodes[id].w
}

// C returns the communication weight of the edge from id to its parent:
// the time to move one task (input and results) across it. C of the root
// is meaningless and returns 0.
func (t *Tree) C(id NodeID) int64 {
	t.mustHave(id)
	if t.nodes[id].parent == None {
		return 0
	}
	return t.nodes[id].c
}

// SetW changes the compute weight of id. The paper's adaptability
// experiments use this to model changing processor contention.
func (t *Tree) SetW(id NodeID, w int64) {
	t.mustHave(id)
	if w <= 0 {
		panic(fmt.Sprintf("tree: compute weight %d must be positive", w))
	}
	t.nodes[id].w = w
}

// SetC changes the communication weight of the edge above id. The paper's
// adaptability experiments use this to model changing network contention.
// It panics when id is the root, which has no parent edge.
func (t *Tree) SetC(id NodeID, c int64) {
	t.mustHave(id)
	if t.nodes[id].parent == None {
		panic("tree: root has no parent edge")
	}
	if c <= 0 {
		panic(fmt.Sprintf("tree: communication weight %d must be positive", c))
	}
	t.nodes[id].c = c
}

// Depth returns the number of edges between id and the root.
func (t *Tree) Depth(id NodeID) int {
	t.mustHave(id)
	return int(t.nodes[id].depth)
}

// MaxDepth returns the depth of the deepest node.
func (t *Tree) MaxDepth() int {
	max := int32(0)
	for i := range t.nodes {
		if t.nodes[i].depth > max {
			max = t.nodes[i].depth
		}
	}
	return int(max)
}

// Walk visits every node in preorder (parents before children), calling fn
// with each ID. Iteration stops early if fn returns false.
func (t *Tree) Walk(fn func(NodeID) bool) {
	stack := []NodeID{t.Root()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(id) {
			return
		}
		kids := t.nodes[id].children
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
}

// WalkPost visits every node in postorder (children before parents). The
// bottom-up optimal-rate computation relies on this ordering.
func (t *Tree) WalkPost(fn func(NodeID)) {
	var rec func(NodeID)
	rec = func(id NodeID) {
		for _, k := range t.nodes[id].children {
			rec(k)
		}
		fn(id)
	}
	rec(t.Root())
}

// Subtree returns the IDs of all nodes in the subtree rooted at id, in
// preorder.
func (t *Tree) Subtree(id NodeID) []NodeID {
	t.mustHave(id)
	out := []NodeID{}
	stack := []NodeID{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		kids := t.nodes[n].children
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return out
}

// Clone returns a deep copy of t.
func (t *Tree) Clone() *Tree {
	nodes := make([]node, len(t.nodes))
	copy(nodes, t.nodes)
	for i := range nodes {
		// Also drops an empty slice's capacity: after a Reset it is
		// storage the original will append into.
		nodes[i].children = append([]NodeID(nil), nodes[i].children...)
	}
	return &Tree{nodes: nodes}
}

// Attach grafts a deep copy of sub under parent, connecting sub's root to
// parent with communication weight c. It returns the new ID of sub's root.
// This models a subtree of resources joining a running overlay, which the
// paper highlights as a key property of autonomous scheduling.
func (t *Tree) Attach(parent NodeID, sub *Tree, c int64) NodeID {
	t.mustHave(parent)
	ids := make([]NodeID, sub.Len())
	var newRoot NodeID
	sub.Walk(func(old NodeID) bool {
		if old == sub.Root() {
			newRoot = t.AddChild(parent, sub.W(old), c)
			ids[old] = newRoot
		} else {
			ids[old] = t.AddChild(ids[sub.Parent(old)], sub.W(old), sub.C(old))
		}
		return true
	})
	return newRoot
}

// Validate checks structural invariants: dense IDs, a single root at ID 0,
// consistent parent/child links, correct depths, and positive weights. A
// tree built only through this package's API always validates; Validate
// exists to vet trees decoded from external data.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return errors.New("tree: empty")
	}
	if t.nodes[0].parent != None {
		return errors.New("tree: node 0 is not a root")
	}
	seen := 0
	for id := range t.nodes {
		n := &t.nodes[id]
		if n.w <= 0 {
			return fmt.Errorf("tree: node %d has non-positive compute weight %d", id, n.w)
		}
		if n.parent == None {
			if id != 0 {
				return fmt.Errorf("tree: node %d is a second root", id)
			}
		} else {
			if int(n.parent) < 0 || int(n.parent) >= len(t.nodes) {
				return fmt.Errorf("tree: node %d has invalid parent %d", id, n.parent)
			}
			if n.c <= 0 {
				return fmt.Errorf("tree: node %d has non-positive communication weight %d", id, n.c)
			}
			if n.depth != t.nodes[n.parent].depth+1 {
				return fmt.Errorf("tree: node %d has depth %d, parent depth %d", id, n.depth, t.nodes[n.parent].depth)
			}
			found := false
			for _, k := range t.nodes[n.parent].children {
				if int(k) == id {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("tree: node %d missing from children of %d", id, n.parent)
			}
		}
		seen++
	}
	// Reachability: every node must be visited from the root exactly once.
	count := 0
	t.Walk(func(NodeID) bool { count++; return true })
	if count != seen {
		return fmt.Errorf("tree: %d of %d nodes reachable from root", count, seen)
	}
	return nil
}

// String renders a short human-readable summary.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{nodes: %d, depth: %d}", t.Len(), t.MaxDepth())
}
