// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis API: just enough Analyzer/Pass/Diagnostic
// surface for bwvet's repo-invariant analyzers. The build environment is
// hermetic (no module proxy), so the real x/tools cannot be vendored; the
// shapes below mirror it closely enough that migrating to the upstream
// framework later is a mechanical rename.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one repo-invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and why.
	Doc string
	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
	// Match, when non-nil, restricts the analyzer to packages whose
	// import path it accepts; the driver skips the rest. Fixture tests
	// bypass Match and run the analyzer directly.
	Match func(pkgPath string) bool
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report collects one diagnostic; installed by the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver
}
