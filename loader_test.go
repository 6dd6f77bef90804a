package bwcs_test

// A source loader for the tests that need real go/types (the exported-API
// guard and the discarded-error check), with no dependency beyond the
// standard library. Imports inside the module are resolved by walking the
// repository itself; every other import (all standard library here) is
// type-checked from GOROOT source via go/importer's "source" compiler,
// which needs neither pre-compiled export data nor network access.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadedPackage is one parsed, type-checked package.
type loadedPackage struct {
	Path  string // import path, e.g. "bwcs/live"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// srcLoader loads packages of a single module.
type srcLoader struct {
	Fset *token.FileSet

	modRoot string
	modPath string
	std     types.Importer
	cache   map[string]*loadedPackage
	loading map[string]bool
}

// newLoader returns a loader for the module containing dir (found by walking up
// to go.mod).
func newLoader(dir string) (*srcLoader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer consults the global build context; cgo would
	// drag compiler-specific headers into type-checking, and nothing in
	// this module needs it.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &srcLoader{
		Fset:    fset,
		modRoot: root,
		modPath: path,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*loadedPackage),
		loading: make(map[string]bool),
	}, nil
}

// ModulePath returns the module's import path.
func (l *srcLoader) ModulePath() string { return l.modPath }

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("loader: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("loader: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Load parses and type-checks the non-test files of the package at the
// given module import path.
func (l *srcLoader) Load(path string) (*loadedPackage, error) {
	if !l.inModule(path) {
		return nil, fmt.Errorf("loader: %q is outside module %s", path, l.modPath)
	}
	return l.loadDir(path, l.dirFor(path))
}

func (l *srcLoader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

func (l *srcLoader) dirFor(path string) string {
	if path == l.modPath {
		return l.modRoot
	}
	return filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

func (l *srcLoader) loadDir(path, dir string) (*loadedPackage, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(l.importDep)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-check %s: %w", path, err)
	}
	p := &loadedPackage{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// importDep resolves one import: module-internal paths recurse through
// the loader, everything else goes to the GOROOT source importer.
func (l *srcLoader) importDep(path string) (*types.Package, error) {
	if l.inModule(path) {
		p, err := l.loadDir(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func TestLoadTypeChecksModulePackage(t *testing.T) {
	l, err := newLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ModulePath(); got != "bwcs" {
		t.Fatalf("module path = %q, want bwcs", got)
	}
	pkg, err := l.Load("bwcs/internal/rational")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || !pkg.Types.Complete() {
		t.Fatal("package not fully type-checked")
	}
	if len(pkg.Info.Defs) == 0 {
		t.Fatal("no type info recorded")
	}
	// The loader memoizes: loading again must return the same package.
	again, err := l.Load("bwcs/internal/rational")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("second Load returned a different *loadedPackage")
	}
}

func TestLoadRejectsForeignPath(t *testing.T) {
	l, err := newLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("example.com/elsewhere"); err == nil {
		t.Fatal("expected error for a path outside the module")
	}
}
