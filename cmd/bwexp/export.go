package main

// The machine-readable forms -csv writes (CSV and JSON), so sweeps can
// be analyzed outside this repository — plotted with external tooling,
// diffed across runs, or archived next to EXPERIMENTS.md.

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"bwcs/internal/experiments"
)

// populationCSV writes one row per tree of a population sweep:
//
//	index,nodes,depth,reached,onset,max_node_buffers,max_node_used,total_buffers,used_nodes,used_depth,makespan
func populationCSV(w io.Writer, p *experiments.Population) error {
	cw := csv.NewWriter(w)
	header := []string{
		"index", "nodes", "depth", "reached", "onset",
		"max_node_buffers", "max_node_used", "total_buffers",
		"used_nodes", "used_depth", "makespan",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range p.Outcomes {
		o := &p.Outcomes[i]
		row := []string{
			strconv.Itoa(o.Index),
			strconv.Itoa(o.Nodes),
			strconv.Itoa(o.Depth),
			strconv.FormatBool(o.Reached),
			strconv.Itoa(o.Onset),
			strconv.FormatInt(o.MaxNodeBuffers, 10),
			strconv.FormatInt(o.MaxNodeUsed, 10),
			strconv.FormatInt(o.TotalBuffers, 10),
			strconv.Itoa(o.UsedNodes),
			strconv.Itoa(o.UsedDepth),
			strconv.FormatInt(int64(o.Makespan), 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// populationJSON is the JSON wire form of a population.
type populationJSON struct {
	Protocol string                    `json:"protocol"`
	Reached  float64                   `json:"reachedFraction"`
	Outcomes []experiments.TreeOutcome `json:"outcomes"`
}

// populationsJSON writes population sweeps as a JSON document with one
// entry per protocol.
func populationsJSON(w io.Writer, pops []experiments.Population) error {
	out := make([]populationJSON, len(pops))
	for i := range pops {
		out[i] = populationJSON{
			Protocol: pops[i].Protocol.Label,
			Reached:  pops[i].Agg.ReachedFraction(),
			Outcomes: pops[i].Outcomes,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
