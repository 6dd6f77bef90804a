// Package lint is bwvet's analyzer suite: custom static checks for the
// repo invariants that neither the compiler nor a runtime test can see —
// simulation determinism and error discipline.
// TestRepoInvariants runs the suite over the module under `go test
// ./...`; each analyzer has golden-fixture coverage under testdata/src.
//
// False positives are suppressed with a documented escape hatch:
//
//	//lint:bwvet-ignore <reason>
//
// on (or immediately above) the flagged line. An ignore comment without a
// reason is itself a finding — suppressions must say why — and so is an
// ignore that no longer suppresses anything (stale ignores accrete into
// blind spots).
package lint

import (
	"sort"

	"bwcs/internal/lint/analysis"
	"bwcs/internal/lint/loader"
)

// Analyzers is the full bwvet suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	SimDeterminism,
	ErrDiscipline,
}

// Check runs the given analyzers over one package, honoring each
// analyzer's Match scope, and returns the diagnostics that survive
// //lint:bwvet-ignore filtering (plus findings about malformed or stale
// ignore comments), sorted by position.
func Check(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
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
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	diags = applyIgnores(pkg, diags)
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
	return diags, nil
}
