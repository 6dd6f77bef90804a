package experiments

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/metrics"
	"bwcs/internal/sim"
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
		if sc.OptimalAfter.Cmp(sc.OptimalBefore) >= 0 {
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

// TestRateSeries pins rateSeries' windows: half-open, whole, and none
// for the tail after the last whole one.
func TestRateSeries(t *testing.T) {
	// A completion exactly at t = 64 counts in [64, 128), not in [0, 64);
	// 130 and 150 fall in the partial window [128, 150], which adds no
	// point.
	got := rateSeries([]sim.Time{10, 64, 100, 130, 150}, 64, 150)
	want := metrics.SeriesSnapshot{Name: "rate", Resolution: 64, Points: []metrics.Point{{T: 64, V: 1.0 / 64}, {T: 128, V: 2.0 / 64}}}
	if got.Name != want.Name || got.Resolution != want.Resolution || !slices.Equal(got.Points, want.Points) {
		t.Fatalf("rateSeries = %+v, want %+v", got, want)
	}

	// On the re-convergence runs, the points count every completion
	// before the last point's T, once.
	s, err := newFigure1Scenario("reconverge", 0, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reconvergeProtocols {
		_, res, err := s.run(p.name, p.proto, engine.Mutation{AfterTasks: s.mutateAt, Node: P1, C: 3})
		if err != nil {
			t.Fatal(err)
		}
		pts := rateSeries(res.Completions, rateWindow, res.Makespan).Points
		var sum float64
		for _, pt := range pts {
			if pt.T%int64(rateWindow) != 0 || pt.T > int64(res.Makespan) {
				t.Errorf("%s: point at T = %d (makespan %d)", p.name, pt.T, res.Makespan)
			}
			sum += pt.V * float64(rateWindow)
		}
		last := sim.Time(pts[len(pts)-1].T)
		before, _ := slices.BinarySearch(res.Completions, last)
		if sum != float64(before) {
			t.Errorf("%s: Σ V·%d = %v, want the %d completions before T = %d", p.name, rateWindow, sum, before, last)
		}
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
