package main

import (
	"strings"
	"testing"

	"bwcs/internal/optimal"
	"bwcs/internal/tree"
)

func TestWriteWithAllocation(t *testing.T) {
	tr := tree.New(10)
	tr.AddChild(tr.Root(), 1, 1)  // saturated
	tr.AddChild(tr.Root(), 1, 50) // starved behind a slow link
	var b strings.Builder
	if err := writeDOT(&b, tr, optimal.Compute(tr)); err != nil {
		t.Fatalf("writeDOT: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`digraph "platform"`, "rankdir=TB",
		"palegreen",    // the saturated child
		"lightgray",    // the starved child
		"style=dashed", // its unused edge
		"rate=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestWriteErrors(t *testing.T) {
	var b strings.Builder
	if err := writeDOT(&b, nil, nil); err == nil {
		t.Fatalf("nil tree accepted")
	}
}
