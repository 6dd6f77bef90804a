package bwcs_test

// API guard: the exported surface of package bwcs is pinned exactly in
// testdata/api_golden.txt. Removing or changing an exported name,
// signature, field or method fails, and so does adding one: every export
// is pinned on purpose, with the reader that keeps it.
//
// Regenerate the golden after a deliberate API change with:
//
//	BWCS_UPDATE_API=1 go test -run TestExportedAPICompat .

import (
	"fmt"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

const apiGoldenPath = "testdata/api_golden.txt"

// apiSurface renders the package's exported surface as sorted, stable
// one-line facts: one line per const/var/func, per type, per exported
// field, and per exported method. Aliases to module-internal types (the
// re-export idiom bwcs uses for engine types) are expanded the same way,
// since their fields and methods are part of the public API.
func apiSurface(pkg *types.Package) []string {
	qual := types.RelativeTo(pkg)
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	var expand func(name string, named *types.Named)
	expand = func(name string, named *types.Named) {
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if !f.Exported() {
					continue
				}
				add("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qual))
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				m := u.Method(i)
				if !m.Exported() {
					continue
				}
				add("method %s.%s%s", name, m.Name(), strings.TrimPrefix(types.TypeString(m.Type(), qual), "func"))
			}
			return // interface methods are the whole surface
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if !m.Exported() {
				continue
			}
			add("method %s.%s%s", name, m.Name(), strings.TrimPrefix(types.TypeString(m.Type(), qual), "func"))
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			lines = append(lines, types.ObjectString(obj, qual))
			continue
		}
		if tn.IsAlias() {
			// Under Go 1.23 alias semantics tn.Type() is the *types.Alias
			// itself, which prints as its own name: unalias to reach the
			// target.
			target := types.Unalias(tn.Type())
			add("type %s = %s", name, types.TypeString(target, qual))
			if named, ok := target.(*types.Named); ok {
				expand(name, named)
			}
			continue
		}
		named := tn.Type().(*types.Named)
		switch named.Underlying().(type) {
		case *types.Struct:
			add("type %s struct", name)
		case *types.Interface:
			add("type %s interface", name)
		default:
			add("type %s %s", name, types.TypeString(named.Underlying(), qual))
		}
		expand(name, named)
	}
	sort.Strings(lines)
	return lines
}

// loadAPISurface renders the module root package's exported surface.
func loadAPISurface(t *testing.T) []string {
	t.Helper()
	l, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.Load(l.ModulePath())
	if err != nil {
		t.Fatalf("load %s: %v", l.ModulePath(), err)
	}
	return apiSurface(pkg.Types)
}

// TestAPISurfaceExpandsAliases: the re-exported engine types are pinned
// field by field and method by method, not only by name.
func TestAPISurfaceExpandsAliases(t *testing.T) {
	lines := loadAPISurface(t)
	for _, want := range []string{"type SimConfig = bwcs/internal/engine.Config", "field SimConfig.Tracer ", "method SimResult.MaxNodeUsed("} {
		found := false
		for _, ln := range lines {
			found = found || strings.HasPrefix(ln, want)
		}
		if !found {
			t.Errorf("the API surface has no line starting %q", want)
		}
	}
}

func TestExportedAPICompat(t *testing.T) {
	lines := loadAPISurface(t)

	if os.Getenv("BWCS_UPDATE_API") != "" {
		if err := os.WriteFile(apiGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		t.Logf("wrote %d api facts to %s", len(lines), apiGoldenPath)
		return
	}

	raw, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with BWCS_UPDATE_API=1): %v", err)
	}
	current := make(map[string]bool, len(lines))
	for _, ln := range lines {
		current[ln] = true
	}
	var missing []string
	golden := make(map[string]bool)
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if ln == "" {
			continue
		}
		golden[ln] = true
		if !current[ln] {
			missing = append(missing, ln)
		}
	}
	for _, ln := range missing {
		t.Errorf("exported API removed or changed: %s", ln)
	}
	for _, ln := range lines {
		if !golden[ln] {
			t.Errorf("exported API added without a pin: %s", ln)
		}
	}
	if t.Failed() {
		t.Fatalf("the exported surface differs from %s; after a deliberate change, regenerate it with BWCS_UPDATE_API=1", apiGoldenPath)
	}
}
