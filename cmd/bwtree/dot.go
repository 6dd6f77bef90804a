package main

import (
	"fmt"
	"io"

	"bwcs/internal/optimal"
	"bwcs/internal/tree"
)

// writeDOT renders t to w as a Graphviz DOT digraph, so a platform and
// its optimal allocation a can be inspected with standard tooling (dot
// -Tsvg platform.dot -o platform.svg).
//
// Nodes are annotated with their compute weight, their steady-state rate
// and their role: saturated nodes are filled green, partially fed nodes
// yellow, starved nodes gray. Edges carry their communication weight;
// edges on paths that carry no tasks in the optimal schedule are dashed.
func writeDOT(w io.Writer, t *tree.Tree, a *optimal.Allocation) error {
	if t == nil {
		return fmt.Errorf("dot: nil tree")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("dot: %w", err)
	}
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("digraph \"platform\" {\n")
	p("  rankdir=TB;\n")
	p("  node [shape=box, style=filled, fillcolor=white, fontname=\"monospace\"];\n")
	t.Walk(func(id tree.NodeID) bool {
		fill := "lightgray"
		switch a.Class(t, id) {
		case optimal.Saturated:
			fill = "palegreen"
		case optimal.Partial:
			fill = "khaki"
		}
		label := fmt.Sprintf("P%d\\nw=%d\\nrate=%s", id, t.W(id), a.NodeRate[id].Format(4))
		if id == t.Root() {
			label = "root " + label
		}
		p("  n%d [label=\"%s\", fillcolor=%s];\n", id, label, fill)
		return true
	})
	t.Walk(func(id tree.NodeID) bool {
		if id == t.Root() {
			return true
		}
		attrs := fmt.Sprintf("label=\"c=%d\"", t.C(id))
		if a.InflowRate[id].IsZero() {
			attrs += ", style=dashed, color=gray"
		} else {
			attrs += fmt.Sprintf(", penwidth=2, taillabel=\"%s\"", a.InflowRate[id].Format(3))
		}
		p("  n%d -> n%d [%s];\n", t.Parent(id), id, attrs)
		return true
	})
	p("}\n")
	return err
}
