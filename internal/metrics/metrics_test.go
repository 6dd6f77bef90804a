package metrics

import (
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition of unlabeled
// families — HELP and TYPE lines, a family without help, a negative gauge
// — byte for byte, in snapshot order.
func TestPrometheusGolden(t *testing.T) {
	snap := Snapshot{
		{Name: "test_events_total", Help: "events dispatched", Type: "counter", Samples: []Sample{{Value: 3}}},
		{Name: "test_queue_depth", Help: "current queue depth", Type: "gauge", Samples: []Sample{{Value: -2}}},
		{Name: "test_bare", Type: "gauge", Samples: []Sample{{Value: 0}}},
	}
	var buf strings.Builder
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP test_events_total events dispatched
# TYPE test_events_total counter
test_events_total 3
# HELP test_queue_depth current queue depth
# TYPE test_queue_depth gauge
test_queue_depth -2
# TYPE test_bare gauge
test_bare 0
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestPrometheusLabels pins the rendering of hand-assembled labeled
// samples (the path the live /metrics endpoint uses for per-child
// counters), including label-value escaping.
func TestPrometheusLabels(t *testing.T) {
	snap := Snapshot{{
		Name: "live_forwarded_by_child_total",
		Type: "counter",
		Samples: []Sample{
			{Labels: []Label{{Key: "child", Value: "w1"}}, Value: 7},
			{Labels: []Label{{Key: "child", Value: `we"ird\name`}, {Key: "site", Value: "a"}}, Value: 1},
			// Only \, " and newline have defined escapes in the text
			// format; a tab or stray byte must pass through verbatim,
			// not as Go-style \t or \xNN.
			{Labels: []Label{{Key: "child", Value: "tab\there\nand\xffbyte"}}, Value: 2},
		},
	}}
	var buf strings.Builder
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# TYPE live_forwarded_by_child_total counter
live_forwarded_by_child_total{child="w1"} 7
live_forwarded_by_child_total{child="we\"ird\\name",site="a"} 1
live_forwarded_by_child_total{child="tab	here\nand` + "\xff" + `byte"} 2
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}
