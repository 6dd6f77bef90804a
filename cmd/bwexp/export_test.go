package main

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"bwcs/internal/experiments"
	"bwcs/internal/protocol"
)

func samplePopulation() experiments.Population {
	p := experiments.Population{
		Protocol: protocol.Interruptible(3),
		Outcomes: []experiments.TreeOutcome{
			{Index: 0, Nodes: 40, Depth: 6, Reached: true, Onset: 310, MaxNodeBuffers: 3, MaxNodeUsed: 3, TotalBuffers: 120, UsedNodes: 12, UsedDepth: 4, Makespan: 9001},
			{Index: 1, Nodes: 11, Depth: 2, Reached: false, MaxNodeBuffers: 3, MaxNodeUsed: 2, TotalBuffers: 33, UsedNodes: 3, UsedDepth: 1, Makespan: 777},
		},
		Agg: experiments.NewPopulationAgg(),
	}
	for _, oc := range p.Outcomes {
		p.Agg.Observe(oc)
	}
	return p
}

func TestPopulationCSV(t *testing.T) {
	var b strings.Builder
	p := samplePopulation()
	if err := populationCSV(&b, &p); err != nil {
		t.Fatalf("populationCSV: %v", err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][0] != "index" || rows[0][10] != "makespan" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][3] != "true" || rows[2][3] != "false" {
		t.Fatalf("reached column wrong: %v / %v", rows[1], rows[2])
	}
	if rows[1][10] != "9001" {
		t.Fatalf("makespan = %v", rows[1][10])
	}
}

func TestPopulationsJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	pops := []experiments.Population{samplePopulation()}
	if err := populationsJSON(&b, pops); err != nil {
		t.Fatalf("populationsJSON: %v", err)
	}
	var decoded []struct {
		Protocol string                    `json:"protocol"`
		Reached  float64                   `json:"reachedFraction"`
		Outcomes []experiments.TreeOutcome `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(decoded) != 1 || decoded[0].Protocol != "IC FB=3" {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded[0].Reached != 0.5 {
		t.Fatalf("reached = %v", decoded[0].Reached)
	}
	if len(decoded[0].Outcomes) != 2 || decoded[0].Outcomes[0].Makespan != 9001 {
		t.Fatalf("outcomes = %+v", decoded[0].Outcomes)
	}
}

// failAfter errors once n bytes have been written, to exercise writer
// error paths.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errBoom
	}
	if len(p) > f.n {
		wrote := f.n
		f.n = 0
		return wrote, errBoom
	}
	f.n -= len(p)
	return len(p), nil
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestWriterFailuresSurface(t *testing.T) {
	p := samplePopulation()
	if err := populationCSV(&failAfter{n: 10}, &p); err == nil {
		t.Fatalf("populationCSV swallowed writer error")
	}
	if err := populationsJSON(&failAfter{n: 3}, []experiments.Population{p}); err == nil {
		t.Fatalf("populationsJSON swallowed writer error")
	}
}
