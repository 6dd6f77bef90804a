package lint_test

import (
	"testing"

	"bwcs/internal/lint"
	"bwcs/internal/lint/analysistest"
)

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SimDeterminism, "simdet")
}

func TestErrDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ErrDiscipline, "errdiscipline")
}

// TestIgnoreDirectives pins the //lint:bwvet-ignore contract: a reasoned
// ignore on the flagged line or the line above suppresses, a reasonless
// one is reported and suppresses nothing.
func TestIgnoreDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ErrDiscipline, "ignore")
}

// TestStaleIgnores pins stale-ignore detection: a reasoned ignore that
// suppresses nothing becomes a finding.
func TestStaleIgnores(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ErrDiscipline, "staleignore")
}

// TestMatchScopes pins which packages each scoped analyzer patrols, so a
// package rename cannot silently drop it from coverage.
func TestMatchScopes(t *testing.T) {
	cases := []struct {
		name  string
		match func(string) bool
		in    []string
		out   []string
	}{
		{
			"simdeterminism", lint.SimDeterminism.Match,
			[]string{"bwcs/internal/sim", "bwcs/internal/engine", "bwcs/internal/protocol", "bwcs/internal/optimal"},
			[]string{"bwcs", "bwcs/live", "bwcs/internal/metrics"},
		},
		{
			"errdiscipline", lint.ErrDiscipline.Match,
			[]string{"bwcs/live", "bwcs/cmd/bwnode", "bwcs/cmd/bwexp"},
			[]string{"bwcs", "bwcs/internal/sim"},
		},
	}
	for _, c := range cases {
		for _, p := range c.in {
			if !c.match(p) {
				t.Errorf("%s: expected to cover %s", c.name, p)
			}
		}
		for _, p := range c.out {
			if c.match(p) {
				t.Errorf("%s: expected not to cover %s", c.name, p)
			}
		}
	}
}
