package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bwcs/internal/lint"
	"bwcs/internal/lint/loader"
)

// TestRepoInvariants is bwvet's only driver: the whole suite over every
// package of the module, so `go test ./...` alone catches a broken
// invariant.
func TestRepoInvariants(t *testing.T) {
	l, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand(l.ModuleRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags, err := lint.Check(pkg, lint.Analyzers)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestNoFunctionStyleAtomics keeps every atomic a typed atomic.Int64 and
// friends, where a mixed plain access does not compile: the function-style
// API on a plain field is the only way to write that race.
func TestNoFunctionStyleAtomics(t *testing.T) {
	funcStyle := regexp.MustCompile(`^(Add|Load|Store|Swap|CompareAndSwap|And|Or)[A-Z]`)
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "atomic" && funcStyle.MatchString(sel.Sel.Name) {
					t.Errorf("%s: atomic.%s: use a typed atomic (atomic.Int64, atomic.Pointer[T], ...) instead", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGobOnlyInWireBench fences the retired gob stream: live/wirebench.go
// keeps one encode/decode loop so the benchmark's live.wire.frames_per_s.gob
// row still measures gob, and no other Go file — test and fixture included —
// may import the package. Delete this test with that arm.
func TestGobOnlyInWireBench(t *testing.T) {
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || path == filepath.FromSlash("../../live/wirebench.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob: nodes speak one wire format, and gob is the benchmark's residue in live/wirebench.go alone", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
