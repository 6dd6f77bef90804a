package lint_test

import (
	"testing"

	"bwcs/internal/lint"
	"bwcs/internal/lint/analysistest"
)

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SimDeterminism, "simdet")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockDiscipline, "lock")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", lint.CtxFlow, "ctxflow")
}

func TestGoroLeak(t *testing.T) {
	analysistest.Run(t, "testdata", lint.GoroLeak, "goroleak")
}

func TestErrDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ErrDiscipline, "errdiscipline")
}

// TestErrDisciplineFixes round-trips the %w suggested fix through the
// golden file: `bwvet -fix` must produce exactly a.go.golden.
func TestErrDisciplineFixes(t *testing.T) {
	analysistest.RunFixes(t, "testdata", lint.ErrDiscipline, "errdiscipline")
}

// TestIgnoreDirectives pins the //lint:bwvet-ignore contract: a reasoned
// ignore on the flagged line or the line above suppresses, a reasonless
// one is reported and suppresses nothing.
func TestIgnoreDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockDiscipline, "ignore")
}

// TestStaleIgnores pins stale-ignore detection: a reasoned ignore that
// suppresses nothing becomes a finding, and its suggested fix deletes
// the comment (whole line when it stands alone).
func TestStaleIgnores(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockDiscipline, "staleignore")
}

func TestStaleIgnoreFixes(t *testing.T) {
	analysistest.RunFixes(t, "testdata", lint.LockDiscipline, "staleignore")
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
			"ctxflow", lint.CtxFlow.Match,
			[]string{"bwcs", "bwcs/live"},
			[]string{"bwcs/internal/engine"},
		},
		{
			"goroleak", lint.GoroLeak.Match,
			[]string{"bwcs/live", "bwcs/cmd/bwnode"},
			[]string{"bwcs", "bwcs/internal/engine"},
		},
		{
			"errdiscipline", lint.ErrDiscipline.Match,
			[]string{"bwcs/live", "bwcs/cmd/bwnode", "bwcs/cmd/bwvet"},
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
	if lint.LockDiscipline.Match != nil {
		t.Error("lockdiscipline is repo-wide: Match must be nil")
	}
}
