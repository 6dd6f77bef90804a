package loader_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"bwcs/internal/loader"
)

// repoRoot walks up from this file to the module root.
func repoRoot(t *testing.T) string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
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

func TestLoadRejectsForeignPath(t *testing.T) {
	l, err := loader.New(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("example.com/elsewhere"); err == nil {
		t.Fatal("expected error for a path outside the module")
	}
}
