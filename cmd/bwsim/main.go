// Command bwsim runs one simulation of an independent-task application on
// a platform tree under an autonomous scheduling protocol and reports
// throughput, steady-state onset, and buffer usage.
//
// Examples:
//
//	bwsim -example -protocol ic -buffers 3 -tasks 10000
//	bwsim -in platform.tree -protocol nonic -buffers 1 -tasks 4000 -chart
//	bwsim -gen -seed 9 -index 0 -protocol ic -buffers 2 -tasks 2000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bwcs"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/sim"
	"bwcs/internal/steady"
	"bwcs/internal/textplot"
	"bwcs/internal/trace"
	"bwcs/internal/tree"
	"bwcs/internal/window"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwsim", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "read the platform from this file")
		example   = fs.Bool("example", false, "use the paper's Figure 1 platform")
		gen       = fs.Bool("gen", false, "generate a random platform (paper defaults)")
		seed      = fs.Uint64("seed", 1, "generator seed for -gen")
		index     = fs.Int("index", 0, "tree index for -gen")
		protoName = fs.String("protocol", "ic", "protocol: ic, nonic (growth), nonic-fixed")
		buffers   = fs.Int("buffers", 3, "buffers per node (IB for nonic, FB otherwise)")
		order     = fs.String("order", "bandwidth", "child order: bandwidth, compute, fcfs, roundrobin, random")
		tasks     = fs.Int64("tasks", 10000, "application size")
		threshold = fs.Int("threshold", window.DefaultThreshold, "onset window threshold")
		chart     = fs.Bool("chart", false, "plot the normalized windowed rate")
		top       = fs.Int("top", 10, "show the busiest N nodes")
		showTrace = fs.Int64("trace", 0, "render a per-node activity timeline for the first N timesteps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tasks < 1 {
		return fmt.Errorf("-tasks %d < 1", *tasks)
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold %d < 0", *threshold)
	}
	if *index < 0 {
		return fmt.Errorf("-index %d < 0", *index)
	}

	var t *tree.Tree
	var err error
	switch {
	case *example:
		t = bwcs.ExampleTree()
	case *gen:
		t = randtree.TreeAt(randtree.Defaults(), *seed, *index)
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		if t, err = tree.Decode(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -in, -example or -gen is required")
	}

	var p protocol.Protocol
	switch *protoName {
	case "ic":
		p = protocol.Interruptible(*buffers)
	case "nonic":
		p = protocol.NonInterruptible(*buffers)
	case "nonic-fixed":
		p = protocol.NonInterruptibleFixed(*buffers)
	default:
		return fmt.Errorf("unknown protocol %q", *protoName)
	}
	switch *order {
	case "bandwidth":
	case "compute":
		p = p.WithOrder(protocol.ComputeCentric)
	case "fcfs":
		p = p.WithOrder(protocol.FCFS)
	case "roundrobin":
		p = p.WithOrder(protocol.RoundRobin)
	case "random":
		p = p.WithOrder(protocol.Random)
	default:
		return fmt.Errorf("unknown order %q", *order)
	}

	var rec *trace.Recorder
	cfg := engine.Config{Tree: t, Protocol: p, Tasks: *tasks, Seed: *seed}
	if *showTrace > 0 {
		rec = &trace.Recorder{}
		cfg.Tracer = rec.Add
	}
	res, err := engine.Run(cfg)
	if err != nil {
		return err
	}
	opt := optimal.Compute(t)
	series, err := window.New(res.Completions, opt.TreeWeight)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "platform: %d nodes, depth %d; protocol: %s; tasks: %d\n", t.Len(), t.MaxDepth(), p, *tasks)
	fmt.Fprintf(out, "optimal steady-state rate: %.6f tasks/timestep (exact %s)\n", opt.Rate.Float64(), opt.Rate)
	fmt.Fprintf(out, "makespan: %d timesteps; whole-run rate: %.6f (%.2f%% of optimal)\n",
		res.Makespan, float64(*tasks)/float64(res.Makespan),
		100*float64(*tasks)/float64(res.Makespan)/opt.Rate.Float64())
	if onset, ok := series.Onset(*threshold); ok {
		fmt.Fprintf(out, "reached optimal steady state at window %d (paper criterion, threshold %d)\n", onset, *threshold)
	} else if onset, ok := series.OnsetInclusive(*threshold); ok {
		fmt.Fprintf(out, "reached optimal steady state at window %d (inclusive criterion)\n", onset)
	} else {
		fmt.Fprintf(out, "did not reach the optimal steady-state rate within %d tasks\n", *tasks)
	}
	det := steady.Detect(res.Completions)
	if det.Found {
		fmt.Fprintf(out, "periodicity: %s — %s vs the optimal rate\n", det, det.Classify(opt.TreeWeight))
	} else {
		fmt.Fprintf(out, "periodicity: none detected within the horizon\n")
	}
	fmt.Fprintf(out, "used nodes: %d/%d (max depth %d); buffers: max/node %d (peak queued %d), total %d; events: %d\n",
		res.UsedCount(), t.Len(), res.UsedMaxDepth(), res.MaxNodeBuffers(), res.MaxNodeUsed(), res.TotalBuffers(), res.Steps)

	var interrupts int64
	for i := range res.Nodes {
		interrupts += res.Nodes[i].Interrupted
	}
	if p.Interruptible {
		fmt.Fprintf(out, "interrupted sends: %d\n", interrupts)
	}

	if *chart {
		norm := series.NormalizedSeries()
		xs := make([]float64, len(norm))
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		fmt.Fprintln(out)
		c := textplot.NewChart("normalized windowed throughput", 72, 16).
			Labels("window start (tasks completed)", "rate / optimal").
			Line(p.Label, xs, norm)
		if err := c.Render(out); err != nil {
			return err
		}
	}

	if rec != nil {
		until := sim.Time(*showTrace)
		if until > res.Makespan {
			until = res.Makespan
		}
		bucket := until / 72
		if bucket < 1 {
			bucket = 1
		}
		fmt.Fprintln(out)
		if err := rec.Timeline(out, 0, until, bucket, 24); err != nil {
			return err
		}
	}

	if *top > 0 {
		fmt.Fprintf(out, "\n%-6s %8s %10s %10s %10s %8s\n", "node", "computed", "received", "forwarded", "requests", "buffers")
		shown := 0
		// Show nodes in descending computed order, simple selection.
		used := make([]int, 0, len(res.Nodes))
		for i := range res.Nodes {
			used = append(used, i)
		}
		for a := 0; a < len(used) && shown < *top; a++ {
			best := a
			for b := a + 1; b < len(used); b++ {
				if res.Nodes[used[b]].Computed > res.Nodes[used[best]].Computed {
					best = b
				}
			}
			used[a], used[best] = used[best], used[a]
			ns := res.Nodes[used[a]]
			if ns.Computed == 0 {
				break
			}
			fmt.Fprintf(out, "%-6d %8d %10d %10d %10d %8d\n", used[a], ns.Computed, ns.Received, ns.Forwarded, ns.Requests, ns.Buffers)
			shown++
		}
	}
	return nil
}
