package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExampleOptimal(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-example", "-optimal"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{"8 nodes", "13/15", "saturated", "starved", "4 of 8 nodes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateWriteReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.tree")
	var b strings.Builder
	if err := run([]string{"-gen", "-seed", "5", "-index", "2", "-m", "10", "-n", "30", "-out", path}, &b); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if !strings.Contains(b.String(), "wrote") {
		t.Fatalf("no write confirmation: %s", b.String())
	}
	b.Reset()
	if err := run([]string{"-in", path, "-optimal"}, &b); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !strings.Contains(b.String(), "optimal steady-state rate") {
		t.Fatalf("no optimal output:\n%s", b.String())
	}
}

func TestGenerateToStdout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-gen", "-seed", "1", "-m", "5", "-n", "5"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(b.String(), "bwcs-tree v1") {
		t.Fatalf("no tree on stdout:\n%s", b.String())
	}
}

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{}, &b); err == nil {
		t.Fatalf("no source accepted")
	}
	if err := run([]string{"-gen", "-m", "0"}, &b); err == nil {
		t.Fatalf("bad params accepted")
	}
	if err := run([]string{"-in", "/does/not/exist"}, &b); err == nil {
		t.Fatalf("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.tree")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bad}, &b); err == nil {
		t.Fatalf("garbage file accepted")
	}
}

// TestNegativeIndexRejected: -index -1 built a tree that belongs to no
// seed's population.
func TestNegativeIndexRejected(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-gen", "-index", "-1"}, &b); err == nil || !strings.Contains(err.Error(), "-index") {
		t.Fatalf("err = %v, want an -index error", err)
	}
	if b.Len() != 0 {
		t.Fatalf("rejected run printed:\n%s", b.String())
	}
}

// TestDOTExport pins bwtree -example -dot byte for byte against
// testdata/fig1.dot: the Figure 1 platform coloured by its optimal
// allocation. The file is edited by hand, if ever.
func TestDOTExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.dot")
	var b strings.Builder
	if err := run([]string{"-example", "-dot", path}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dot: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig1.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("DOT output drifted from testdata/fig1.dot\n got:\n%s\nwant:\n%s", got, want)
	}
}
