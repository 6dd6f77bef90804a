package experiments

import (
	"strings"
	"testing"
)

// TestPaperScaleSmoke runs the paper-scale harness with the paper's full
// Tasks (10,000) on a handful of trees: the Figure 4 + Table 1
// pipeline, the render, and the JSON artifact all at the real
// application size. Skipped under -short.
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-Tasks smoke test skipped in -short mode")
	}
	o := Default()
	o.Trees = 3
	o.Tasks = 10_000
	o.Workers = 2
	r, err := PaperScale(o)
	if err != nil {
		t.Fatalf("PaperScale: %v", err)
	}
	if len(r.Fig4.Populations) != len(Fig4Protocols()) {
		t.Fatalf("got %d populations, want %d", len(r.Fig4.Populations), len(Fig4Protocols()))
	}
	for i := range r.Fig4.Populations {
		p := &r.Fig4.Populations[i]
		if p.Agg == nil || p.Agg.Trees != o.Trees {
			t.Fatalf("%v: aggregate covers %v trees, want %d", p.Protocol, p.Agg, o.Trees)
		}
		if f := p.Agg.ReachedFraction(); f < 0 || f > 1 {
			t.Fatalf("%v: reached fraction %v out of range", p.Protocol, f)
		}
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(sb.String(), "Table 1") || !strings.Contains(sb.String(), "paper-scale sweep") {
		t.Fatalf("render missing sections:\n%s", sb.String())
	}
	j := r.JSON()
	if j.Schema != "bwcs-paperscale/v1" || j.Tasks != 10_000 || len(j.Protocols) != 4 {
		t.Fatalf("artifact malformed: %+v", j)
	}
	for _, p := range j.Protocols {
		if len(p.CDFX) == 0 || len(p.CDFX) != len(p.CDFY) {
			t.Fatalf("%s: CDF series malformed (%d xs, %d ys)", p.Label, len(p.CDFX), len(p.CDFY))
		}
	}
}
