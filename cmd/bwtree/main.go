// Command bwtree generates and inspects platform trees.
//
// Generate a random platform in the paper's distribution and save it:
//
//	bwtree -gen -seed 7 -index 3 -out platform.tree
//
// Inspect a platform: structure, optimal steady-state rate, and the
// bandwidth-centric theorem's per-node allocation:
//
//	bwtree -in platform.tree -optimal
//	bwtree -example -optimal          # the paper's Figure 1 platform
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bwcs"

	"bwcs/internal/optimal"
	"bwcs/internal/randtree"
	"bwcs/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwtree:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwtree", flag.ContinueOnError)
	var (
		gen     = fs.Bool("gen", false, "generate a random platform")
		example = fs.Bool("example", false, "use the paper's Figure 1 platform")
		in      = fs.String("in", "", "read a platform from this file")
		outFile = fs.String("out", "", "write the platform to this file (default stdout when generating)")
		seed    = fs.Uint64("seed", 1, "generator seed")
		index   = fs.Int("index", 0, "tree index within the seed's stream")
		m       = fs.Int("m", 10, "minimum nodes")
		n       = fs.Int("n", 500, "maximum nodes")
		b       = fs.Int64("b", 1, "minimum link time")
		d       = fs.Int64("d", 100, "maximum link time")
		x       = fs.Int64("x", 10000, "computation parameter (times in [x/100, x])")
		opt     = fs.Bool("optimal", false, "print the optimal steady-state rate and allocation")
		dotOut  = fs.String("dot", "", "write a Graphviz DOT rendering (with allocation coloring) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *index < 0 {
		return fmt.Errorf("-index %d < 0", *index)
	}

	var t *tree.Tree
	switch {
	case *gen:
		p := randtree.Params{MinNodes: *m, MaxNodes: *n, MinComm: *b, MaxComm: *d, Comp: *x}
		if err := p.Validate(); err != nil {
			return err
		}
		t = randtree.TreeAt(p, *seed, *index)
	case *example:
		t = bwcs.ExampleTree()
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		t, err = tree.Decode(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -gen, -example or -in is required")
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		if err := t.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d-node platform to %s\n", t.Len(), *outFile)
	} else if *gen && !*opt {
		if err := t.Encode(out); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "platform: %d nodes, depth %d\n", t.Len(), t.MaxDepth())
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		if err := writeDOT(f, t, optimal.Compute(t)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote DOT rendering to %s\n", *dotOut)
	}
	if !*opt {
		return nil
	}
	a := optimal.Compute(t)
	fmt.Fprintf(out, "optimal steady-state rate: %s tasks/timestep (%.6f); weight wtree = %s\n",
		a.Rate, a.Rate.Float64(), a.TreeWeight)
	fmt.Fprintf(out, "\n%-6s %-6s %6s %6s %-10s %14s %14s\n", "node", "parent", "w", "c", "class", "compute rate", "inflow rate")
	t.Walk(func(id tree.NodeID) bool {
		parent := "-"
		c := "-"
		if id != t.Root() {
			parent = fmt.Sprintf("%d", t.Parent(id))
			c = fmt.Sprintf("%d", t.C(id))
		}
		fmt.Fprintf(out, "%-6d %-6s %6d %6s %-10s %14.6f %14.6f\n",
			id, parent, t.W(id), c, a.Class(t, id), a.NodeRate[id].Float64(), a.InflowRate[id].Float64())
		return true
	})
	used := 0
	for id := tree.NodeID(0); int(id) < t.Len(); id++ {
		if a.Used(id) {
			used++
		}
	}
	fmt.Fprintf(out, "\n%d of %d nodes are used in the optimal schedule\n", used, t.Len())
	return nil
}
