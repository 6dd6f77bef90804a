package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"bwcs/internal/textplot"
)

func TestReconverge(t *testing.T) {
	r, err := Reconverge(0, 0)
	if err != nil {
		t.Fatalf("Reconverge: %v", err)
	}
	if len(r.Scenarios) != 4 {
		t.Fatalf("scenarios = %d", len(r.Scenarios))
	}
	for _, sc := range r.Scenarios {
		// Every autonomous protocol settles onto an exact period after the
		// mid-run re-weight, in finite time, and never above the new
		// optimum; only IC FB=3 reaches it.
		if !sc.Tail.Found {
			t.Errorf("%s: no period after the mutation", sc.Name)
			continue
		}
		want := -1
		if sc.Name == "interruptible FB=3" {
			want = 0
		}
		if got := sc.Tail.Rate.Cmp(sc.OptimalAfter); got != want {
			t.Errorf("%s: tail %v against optimal-after %v: Cmp = %d, want %d", sc.Name, sc.Tail.Rate, sc.OptimalAfter, got, want)
		}
		if sc.TimeToReconverge <= 0 || sc.MutateTime+sc.TimeToReconverge >= sc.Makespan {
			t.Errorf("%s: time-to-reconverge %d (mutated at %d, makespan %d)",
				sc.Name, sc.TimeToReconverge, sc.MutateTime, sc.Makespan)
		}
		// Raising c1 lowers the optimal rate — the Figure 7 shape,
		// measured instead of eyeballed.
		if !sc.OptimalAfter.Less(sc.OptimalBefore) {
			t.Errorf("%s: mutation did not lower the optimal rate", sc.Name)
		}
		if len(sc.Rate.Points) == 0 {
			t.Errorf("%s: empty rate series", sc.Name)
		}
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "t_reconverge") {
		t.Fatalf("render missing table header:\n%s", buf.String())
	}

	raw, err := json.Marshal(r.JSON())
	if err != nil {
		t.Fatalf("marshal JSON artifact: %v", err)
	}
	var doc struct {
		Schema    string `json:"schema"`
		Scenarios []struct {
			TimeToReconverge *int64 `json:"timeToReconverge"`
			Rate             struct {
				Points []struct{ T int64 } `json:"points"`
			} `json:"rate"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("round-trip JSON artifact: %v", err)
	}
	if doc.Schema != TimelineSchemaV1 {
		t.Fatalf("artifact schema = %q, want %q", doc.Schema, TimelineSchemaV1)
	}
	for i, sc := range doc.Scenarios {
		if sc.TimeToReconverge == nil || len(sc.Rate.Points) == 0 {
			t.Fatalf("artifact scenario %d lost data: %+v", i, sc)
		}
	}
}

// TestReconvergeNoPeriod pins how a tail without a period is reported:
// as such, never as a number, and with no t_reconverge in the artifact.
func TestReconvergeNoPeriod(t *testing.T) {
	r := &ReconvergeResult{Scenarios: []ReconvergeScenario{{Name: "x"}}}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil || !strings.Contains(buf.String(), "no period") {
		t.Fatalf("Render = %v:\n%s", err, buf.String())
	}
	if raw, err := json.Marshal(r.JSON()); err != nil || strings.Contains(string(raw), "timeToReconverge") {
		t.Fatalf("artifact without a period: %v, %s", err, raw)
	}
}

func TestReconvergeRejectsLateMutation(t *testing.T) {
	if _, err := Reconverge(100, 100); err == nil {
		t.Fatalf("accepted mutation at task count >= tasks")
	}
}

func TestSpark(t *testing.T) {
	got := textplot.Spark([]float64{0, 1, 2, 3})
	if got != "▁▃▅█" {
		t.Fatalf("Spark ramp = %q", got)
	}
	if got := textplot.Spark([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Fatalf("Spark flat = %q", got)
	}
	if got := textplot.Spark(nil); got != "" {
		t.Fatalf("Spark empty = %q", got)
	}
}
