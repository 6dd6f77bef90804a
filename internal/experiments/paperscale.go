package experiments

import (
	"fmt"
	"io"
	"time"
)

// PaperScaleResult is the paper's full evaluation scale as one routine
// artifact: the four Figure 4 protocol variants swept over the whole
// tree population, with Table 1 derived from the same runs.
type PaperScaleResult struct {
	Fig4    *Fig4Result
	Table1  *Table1Result
	Elapsed time.Duration
}

// PaperScale runs Figure 4 and Table 1 over one sweep and times it.
// Callers size the sweep: Paper() gives the 25,000 × 10,000 study, smaller
// values make smoke runs.
func PaperScale(o Options) (*PaperScaleResult, error) {
	start := time.Now()
	f4, err := Fig4(o)
	if err != nil {
		return nil, err
	}
	t1, err := Table1(f4)
	if err != nil {
		return nil, err
	}
	return &PaperScaleResult{Fig4: f4, Table1: t1, Elapsed: time.Since(start)}, nil
}

// Render writes the figure-4 CDF, the headline fractions and Table 1.
func (r *PaperScaleResult) Render(w io.Writer) error {
	if err := r.Fig4.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := r.Table1.Render(w); err != nil {
		return err
	}
	var trees int
	var treesPerSec float64
	for i := range r.Fig4.Populations {
		trees += r.Fig4.Populations[i].Agg.Trees
		treesPerSec += r.Fig4.Populations[i].Sweep.TreesPerSec
	}
	fmt.Fprintf(w, "\npaper-scale sweep: %d simulations in %v (mean %.0f trees/sec per population)\n",
		trees, r.Elapsed.Round(time.Millisecond), treesPerSec/float64(len(r.Fig4.Populations)))
	return nil
}

// paperScaleJSON is the machine-readable paper-scale artifact the CI job
// uploads.
type paperScaleJSON struct {
	Schema     string            `json:"schema"`
	Trees      int               `json:"trees"`
	Tasks      int64             `json:"tasks"`
	Threshold  int               `json:"threshold"`
	Seed       uint64            `json:"seed"`
	ElapsedSec float64           `json:"elapsed_sec"`
	Protocols  []paperScaleProto `json:"protocols"`
	Table1     paperScaleTable1  `json:"table1"`
}

// paperScaleProto is one protocol's aggregate in the JSON artifact.
type paperScaleProto struct {
	Label           string    `json:"label"`
	ReachedFraction float64   `json:"reached_fraction"`
	MedianOnset     int64     `json:"median_onset"`
	MaxNodeUsed     int64     `json:"max_node_used"`
	TreesPerSec     float64   `json:"trees_per_sec"`
	CDFX            []int64   `json:"cdf_x"`
	CDFY            []float64 `json:"cdf_y"`
}

// paperScaleTable1 mirrors Table1Result for the artifact.
type paperScaleTable1 struct {
	Buckets []int64   `json:"buckets"`
	NonIC   []float64 `json:"non_ic"`
	IC      []float64 `json:"ic"`
}

// JSON reduces the result to its artifact form.
func (r *PaperScaleResult) JSON() paperScaleJSON {
	o := r.Fig4.Options
	out := paperScaleJSON{
		Schema:     "bwcs-paperscale/v1",
		Trees:      o.Trees,
		Tasks:      o.Tasks,
		Threshold:  o.Threshold,
		Seed:       o.Seed,
		ElapsedSec: r.Elapsed.Seconds(),
		Table1: paperScaleTable1{
			Buckets: Table1Buckets,
			NonIC:   r.Table1.NonIC,
			IC:      r.Table1.IC,
		},
	}
	xs := gridInt64(int(o.Tasks)/2, 60)
	for i := range r.Fig4.Populations {
		p := &r.Fig4.Populations[i]
		out.Protocols = append(out.Protocols, paperScaleProto{
			Label:           p.Protocol.Label,
			ReachedFraction: p.Agg.ReachedFraction(),
			MedianOnset:     p.Agg.MedianOnset(),
			MaxNodeUsed:     p.Agg.MaxNodeUsedMax,
			TreesPerSec:     p.Sweep.TreesPerSec,
			CDFX:            xs,
			CDFY:            p.Agg.OnsetCDF(xs),
		})
	}
	return out
}
