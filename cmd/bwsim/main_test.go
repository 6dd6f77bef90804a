package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExampleRun(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-example", "-tasks", "800", "-threshold", "100", "-chart", "-top", "3"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"8 nodes", "IC FB=3", "optimal steady-state rate",
		"periodicity", "used nodes", "normalized windowed throughput",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestProtocolVariants(t *testing.T) {
	for _, args := range [][]string{
		{"-example", "-protocol", "nonic", "-buffers", "1", "-tasks", "500", "-threshold", "50"},
		{"-example", "-protocol", "nonic-fixed", "-buffers", "2", "-tasks", "500", "-threshold", "50"},
		{"-gen", "-seed", "3", "-index", "1", "-tasks", "500", "-threshold", "50"},
		{"-example", "-order", "compute", "-tasks", "400", "-threshold", "50"},
		{"-example", "-order", "fcfs", "-protocol", "nonic-fixed", "-tasks", "400", "-threshold", "50"},
	} {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if !strings.Contains(b.String(), "makespan") {
			t.Fatalf("run(%v) produced no report:\n%s", args, b.String())
		}
	}
}

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{}, &b); err == nil {
		t.Fatalf("no platform accepted")
	}
	if err := run([]string{"-example", "-protocol", "nope"}, &b); err == nil {
		t.Fatalf("unknown protocol accepted")
	}
	if err := run([]string{"-example", "-order", "nope"}, &b); err == nil {
		t.Fatalf("unknown order accepted")
	}
	if err := run([]string{"-in", "/does/not/exist"}, &b); err == nil {
		t.Fatalf("missing file accepted")
	}
	// A run of no tasks has no rate to report (it printed NaN).
	for _, n := range []string{"0", "-3"} {
		if err := run([]string{"-example", "-tasks", n}, &b); err == nil || !strings.Contains(err.Error(), "-tasks") {
			t.Fatalf("-tasks %s: err = %v, want a -tasks error", n, err)
		}
	}
	// A negative threshold ran the paper's 300 and reported itself; a
	// negative index built a tree of no population.
	for _, args := range [][]string{{"-threshold", "-5"}, {"-gen", "-index", "-1"}} {
		if err := run(append([]string{"-example", "-tasks", "2000"}, args...), &b); err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Fatalf("%v: err = %v, want a %s error", args, err, args[len(args)-2])
		}
	}
	if b.Len() != 0 {
		t.Fatalf("rejected runs printed a report:\n%s", b.String())
	}
}

// traceGoldenArgs are the runs whose whole report, Gantt view included,
// testdata/trace.golden pins: the default protocol, which interrupts, and
// the growth protocol, which grows.
var traceGoldenArgs = [][]string{
	{"-example", "-tasks", "300", "-trace", "400"},
	{"-example", "-tasks", "300", "-trace", "400", "-protocol", "nonic", "-buffers", "1"},
}

// TestTraceGolden pins bwsim's output for traceGoldenArgs byte for byte,
// each run under a "$ bwsim args" header. The file is edited by hand, if
// ever: the Gantt view is rendered from the engine's event stream, so a
// drift here is a change in what the engine records or does.
func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range traceGoldenArgs {
		fmt.Fprintf(&b, "$ bwsim %s\n", strings.Join(args, " "))
		if err := run(args, &b); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("bwsim output drifted from testdata/trace.golden\n got:\n%s\nwant:\n%s", got, want)
	}
}
