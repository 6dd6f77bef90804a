package experiments

import (
	"strings"
	"testing"
)

func TestChurnStudy(t *testing.T) {
	o := tinyOptions()
	o.Trees = 6
	r, err := Churn(o, 4)
	if err != nil {
		t.Fatalf("Churn: %v", err)
	}
	if !r.Completed {
		t.Fatalf("churn lost tasks")
	}
	if r.MeanSlowdown <= 0 {
		t.Fatalf("slowdown = %v", r.MeanSlowdown)
	}
	if r.MeanRequeuedFraction < 0 || r.MeanRequeuedFraction > 1 {
		t.Fatalf("requeued fraction = %v", r.MeanRequeuedFraction)
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Churn study") {
		t.Fatalf("render missing title")
	}
}

func TestChurnRejectsBadInput(t *testing.T) {
	if _, err := Churn(tinyOptions(), 1); err == nil {
		t.Fatalf("too few events accepted")
	}
	bad := tinyOptions()
	bad.Trees = 0
	if _, err := Churn(bad, 4); err == nil {
		t.Fatalf("bad options accepted")
	}
}

func TestAblationDecay(t *testing.T) {
	o := tinyOptions()
	o.Trees = 8
	r, err := AblationDecay(o)
	if err != nil {
		t.Fatalf("AblationDecay: %v", err)
	}
	// Retired buffers can regrow if they turn out to be needed, so final
	// totals only approximately shrink; decay must not inflate them.
	if r.DecayMeanTotal > r.PlainMeanTotal*1.05 {
		t.Fatalf("decay inflated buffer usage: %v > %v", r.DecayMeanTotal, r.PlainMeanTotal)
	}
	if r.DecayReached < r.PlainReached-0.25 {
		t.Fatalf("decay collapsed the reached fraction: %v vs %v", r.DecayReached, r.PlainReached)
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "decay") {
		t.Fatalf("render missing content")
	}
}
