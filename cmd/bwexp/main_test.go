package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tiny returns flags that keep an experiment under a second.
func tiny(exp string, extra ...string) []string {
	args := []string{"-exp", exp, "-trees", "6", "-tasks", "400", "-threshold", "50", "-q"}
	return append(args, extra...)
}

// TestEachExperimentRenders runs every row of experimentTable at tiny
// scale; a row without a marker here fails, so a new experiment cannot
// land untested.
func TestEachExperimentRenders(t *testing.T) {
	extra := map[string][]string{
		"fig5":               {"-trees", "3"},
		"table2":             {"-trees", "3"},
		"ablation-policy":    {"-trees", "3"},
		"ablation-interrupt": {"-trees", "3"},
		"ablation-decay":     {"-trees", "3"},
		"churn":              {"-trees", "3", "-churn", "2"},
	}
	markers := map[string]string{
		"fig3": "Figure 3(a)", "fig4": "Figure 4", "table1": "Table 1",
		"fig6": "Figure 6(a)", "fig5": "Figure 5", "table2": "Table 2",
		"paperscale": "paper-scale sweep: 24 simulations",
		"fig7":       "Figure 7", "reconverge": "Re-convergence",
		"ablation-policy": "Ablation", "ablation-interrupt": "Ablation",
		"ablation-decay": "decay", "churn": "Churn study",
	}
	for _, x := range experimentTable {
		t.Run(x.id, func(t *testing.T) {
			marker, ok := markers[x.id]
			if !ok {
				t.Fatalf("experiment %q has no marker in this test", x.id)
			}
			var b strings.Builder
			if err := run(tiny(x.id, extra[x.id]...), &b); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.Contains(b.String(), marker) {
				t.Fatalf("output missing %q:\n%s", marker, b.String())
			}
		})
	}
}

// TestAllIsTheTableMinusPaperscale pins what "-exp all" means.
func TestAllIsTheTableMinusPaperscale(t *testing.T) {
	want := slices.DeleteFunc(experimentIDs(false), func(id string) bool { return id == "paperscale" })
	if got := experimentIDs(true); len(want) != len(experimentTable)-1 || !slices.Equal(got, want) {
		t.Fatalf("all = %v, want %v", got, want)
	}
}

func TestMultipleExperimentsShareFig4Runs(t *testing.T) {
	var b strings.Builder
	if err := run(tiny("fig4,table1,fig6"), &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{"Figure 4", "Table 1", "Figure 6(a)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var b strings.Builder
	if err := run(tiny("fig4", "-csv", dir), &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	var csvs, jsons int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".csv"):
			csvs++
		case strings.HasSuffix(e.Name(), ".json"):
			jsons++
		}
	}
	if csvs != 4 || jsons != 1 {
		t.Fatalf("exports: %d csv, %d json", csvs, jsons)
	}
}

// TestArtifactFlagsRejectedUpFront pins that a -csv or -json nothing
// selected can honour, or a -json two selected experiments would share,
// fails before any experiment runs instead of running the sweep, writing
// nothing (or one file over the other) and exiting 0.
func TestArtifactFlagsRejectedUpFront(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, c := range []struct{ exp, flag, want string }{
		{"fig3", "-json", "none of fig3 has a JSON artifact"},
		{"paperscale", "-csv", "none of paperscale has a CSV artifact"},
		{"fig4,table1", "-json", "none of fig4,table1 has a JSON artifact"},
		{"paperscale,reconverge", "-json", "paperscale and reconverge would each overwrite it"},
	} {
		var b strings.Builder
		err := run(tiny(c.exp, c.flag, out), &b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-exp %s %s: err = %v, want %q", c.exp, c.flag, err, c.want)
		}
		if b.Len() != 0 {
			t.Errorf("-exp %s %s: ran before rejecting:\n%s", c.exp, c.flag, b.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("-exp %s %s: wrote %s", c.exp, c.flag, out)
		}
	}
	all := experimentIDs(true)
	if err := checkArtifactFlags(all, out, out); err != nil {
		t.Errorf("-exp all -csv -json: %v", err)
	}
	if err := checkArtifactFlags([]string{"fig4", "fig5"}, out, ""); err != nil {
		t.Errorf("fig4 and fig5 write differently named files into one -csv directory: %v", err)
	}
}

// TestDeclaredArtifactsAreWritten holds artifactFlag to writeArtifacts:
// every experiment the table says honours a flag writes something.
func TestDeclaredArtifactsAreWritten(t *testing.T) {
	for id, flag := range artifactFlag {
		out := filepath.Join(t.TempDir(), "out")
		var b strings.Builder
		if err := run(tiny(id, "-trees", "3", "-"+flag, out), &b); err != nil {
			t.Fatalf("%s -%s: %v", id, flag, err)
		}
		if _, err := os.Stat(out); err != nil {
			t.Errorf("%s -%s wrote nothing: %v", id, flag, err)
		}
	}
}

// TestAllMatchesGolden pins every experiment's rendered text at a small
// scale, byte for byte. Regenerate after a deliberate output change with
//
//	go run ./cmd/bwexp -exp all -q -trees 8 -tasks 600 -churn 2 > cmd/bwexp/testdata/all.golden
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "0"} {
		var b strings.Builder
		if err := run([]string{"-exp", "all", "-q", "-trees", "8", "-tasks", "600", "-churn", "2", "-workers", workers}, &b); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		if got := b.String(); got != string(want) {
			t.Fatalf("-workers %s: output differs from testdata/all.golden at line %d", workers, firstDiffLine(got, string(want)))
		}
	}
}

// TestReconvergeJSONMatchesResults pins the committed re-convergence
// artifact. Regenerate with
//
//	go run ./cmd/bwexp -exp reconverge -q -json results/reconverge.json
func TestReconvergeJSONMatchesResults(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "reconverge.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "reconverge.json")
	var b strings.Builder
	if err := run([]string{"-exp", "reconverge", "-q", "-json", out}, &b); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("reconverge JSON differs from results/reconverge.json at line %d", firstDiffLine(string(got), string(want)))
	}
}

// TestDefaultScaleSectionsMatchResults pins the hand-spliced sections of
// the committed default-scale outputs that take milliseconds to rerun:
// Figure 7 and reconverge in results/all_default_scale.txt, and Figure 7
// in results/extras.txt. After a deliberate output change, splice the
// fresh `go run ./cmd/bwexp -exp fig7,reconverge` sections into both.
func TestDefaultScaleSectionsMatchResults(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "fig7,reconverge", "-q"}, &b); err != nil {
		t.Fatal(err)
	}
	fresh := sections(b.String())
	for _, c := range []struct {
		file string
		want []string
	}{
		{"all_default_scale.txt", fresh},
		{"extras.txt", fresh[:1]},
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "results", c.file))
		if err != nil {
			t.Fatal(err)
		}
		have := sections(string(raw))
		for _, want := range c.want {
			heading, _, _ := strings.Cut(want, "\n")
			i := slices.IndexFunc(have, func(s string) bool { return strings.HasPrefix(s, heading+"\n") })
			if i < 0 {
				t.Errorf("results/%s has no section %q", c.file, heading)
			} else if have[i] != want {
				t.Errorf("results/%s: section %q differs from a fresh run at line %d", c.file, heading, firstDiffLine(have[i], want))
			}
		}
	}
}

// completedLine matches the timing line bwexp prints after each
// experiment without -q.
var completedLine = regexp.MustCompile(`(?m)^\[\S+ completed in .*\]$`)

// sections splits bwexp's text output into its experiments' sections,
// timing lines and surrounding blank lines dropped.
func sections(out string) []string {
	parts := strings.Split(out, "\n"+strings.Repeat("=", 78)+"\n")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(completedLine.ReplaceAllString(p, ""))
	}
	return parts
}

// firstDiffLine returns the 1-based line where a and b first differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// TestNegativeSizesRejected pins that a negative -trees or -tasks, a
// -threshold below -1 or a negative -workers fails before anything runs
// instead of silently running the default; 0 (-1 for -threshold) stays
// "default".
func TestNegativeSizesRejected(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-trees", "-1", "-trees -1 < 0"},
		{"-tasks", "-5", "-tasks -5 < 0"},
		{"-threshold", "-7", "-threshold -7 < -1"},
		{"-workers", "-4", "-workers -4 < 0"},
	} {
		var b strings.Builder
		if err := run([]string{"-exp", "fig3", c.flag, c.value}, &b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %s: err = %v, want %q", c.flag, c.value, err, c.want)
		}
		if b.Len() != 0 {
			t.Errorf("%s %s: ran before rejecting:\n%s", c.flag, c.value, b.String())
		}
	}
}

// TestFig7HonoursTasks pins that fig7 runs the -tasks it is given, as
// reconverge does on the same scenario: 3 tasks cannot reach the mutation
// after 200 and must be rejected.
func TestFig7HonoursTasks(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "fig7", "-tasks", "3", "-q"}, &b)
	if want := "mutation at 200 but only 3 tasks"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("-exp fig7 -tasks 3: err = %v, want %q", err, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "fig99"}, &b); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
}

func TestProfilingFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	trc := filepath.Join(dir, "trace.out")
	var b strings.Builder
	if err := run(tiny("fig3", "-cpuprofile", cpu, "-memprofile", mem, "-trace", trc), &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{cpu, mem, trc} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
