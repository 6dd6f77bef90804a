package loader_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"bwcs/internal/lint/loader"
)

// repoRoot walks up from this file to the module root.
func repoRoot(t *testing.T) string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(filepath.Dir(file))))
}

func TestLoadTypeChecksModulePackage(t *testing.T) {
	l, err := loader.New(repoRoot(t))
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
		t.Fatal("second Load returned a different *Package")
	}
}

func TestExpandSkipsTestdataAndHiddenDirs(t *testing.T) {
	root := repoRoot(t)
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if seen[p] {
			t.Errorf("duplicate package %s", p)
		}
		seen[p] = true
		if filepath.Base(p) == "testdata" {
			t.Errorf("testdata leaked into expansion: %s", p)
		}
	}
	for _, want := range []string{"bwcs", "bwcs/live", "bwcs/internal/lint", "bwcs/cmd/bwnode"} {
		if !seen[want] {
			t.Errorf("expansion missing %s (got %d packages)", want, len(paths))
		}
	}
	if seen["bwcs/internal/lint/testdata/src/simdet"] {
		t.Error("fixture package leaked into ./... expansion")
	}
}

func TestLoadRejectsForeignPath(t *testing.T) {
	l, err := loader.New(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("example.com/elsewhere"); err == nil {
		t.Fatal("expected error for a path outside the module")
	}
}
