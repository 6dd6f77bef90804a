// Package lint is bwvet's analyzer suite: custom static checks for the
// repo invariants that neither the compiler nor a runtime test can see —
// simulation determinism, lock discipline, context plumbing, goroutine
// lifecycle, and error discipline. cmd/bwvet drives the suite over the
// module and TestRepoInvariants runs it under `go test ./...`; each
// analyzer has golden-fixture coverage under testdata/src.
//
// False positives are suppressed with a documented escape hatch:
//
//	//lint:bwvet-ignore <reason>
//
// on (or immediately above) the flagged line. An ignore comment without a
// reason is itself a finding — suppressions must say why — and so is an
// ignore that no longer suppresses anything (stale ignores accrete into
// blind spots; `bwvet -ignores` audits them).
package lint

import (
	"sort"

	"bwcs/internal/lint/analysis"
	"bwcs/internal/lint/loader"
)

// Analyzers is the full bwvet suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	SimDeterminism,
	LockDiscipline,
	CtxFlow,
	GoroLeak,
	ErrDiscipline,
}

// Check runs the given analyzers over one package, honoring each
// analyzer's Match scope, and returns the diagnostics that survive
// //lint:bwvet-ignore filtering (plus findings about malformed or stale
// ignore comments), sorted by position.
func Check(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	diags, _, err := check(pkg, analyzers)
	return diags, err
}

// Ignores runs the given analyzers over one package and returns every
// //lint:bwvet-ignore directive it holds, each marked with whether it
// actually suppressed a finding. `bwvet -ignores` renders this audit.
func Ignores(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]*IgnoreDirective, error) {
	_, directives, err := check(pkg, analyzers)
	return directives, err
}

func check(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, []*IgnoreDirective, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(pkg.Path) {
			continue
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     &pkg.Facts,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, err
		}
	}
	directives := collectIgnores(pkg)
	diags = applyIgnores(pkg, diags, directives)
	fset := pkg.Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, directives, nil
}
