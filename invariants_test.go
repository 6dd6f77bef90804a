package bwcs_test

// Repo-wide structural invariants. Each is a walk over the source with a
// reasoned allowlist; DESIGN.md §9 lists the mutation each one catches.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// discardAllowlist names, as "file:callee", each deliberate site in
// non-test live/ and cmd/ code that drops an error outside the teardown
// callees. Each entry covers exactly one site.
var discardAllowlist = map[string]string{
	"live/live.go:c.send": "heartbeat probe: a failed probe shows up as recv silence and supervision severs the link",
	"live/wire.go:c.send": "Close's farewell: best effort on teardown; the conn closes next either way",
}

// teardownCallees drop their errors anywhere: the error is uninformative or
// the connection is already being torn down. Each entry must cover at
// least one site. Close and the deadline setters (which fail only on a
// closed socket, reported by the next I/O call) are matched by name, fmt
// printing by prefix.
var teardownCallees = map[string]string{
	"(*net/http.Server).Serve":        "returns ErrServerClosed on orderly shutdown",
	"(*encoding/json.Encoder).Encode": "status-server response write: the client went away",
}

// wrapVerb finds a %w verb once every %% is removed.
var wrapVerb = regexp.MustCompile(`%[-+# 0-9.*\[\]]*w`)

// TestNoDiscardedErrors keeps the live runtime and the commands from
// losing an error on the recovery path: a `_ =`, bare, deferred or `go`
// call that drops an error result must be a teardown callee or on
// discardAllowlist, and fmt.Errorf with an error argument must wrap it
// with %w so errors.Is/As see through.
func TestNoDiscardedErrors(t *testing.T) {
	l, err := newLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"bwcs/live"}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cmds {
		paths = append(paths, "bwcs/cmd/"+e.Name())
	}
	errType := types.Universe.Lookup("error").Type()
	isErr := func(t types.Type) bool { return t != nil && types.Identical(t, errType) }
	used := make(map[string]int)
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		callee := func(call *ast.CallExpr) string {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
					return fn.FullName()
				}
			}
			return ""
		}
		check := func(e ast.Expr, kind string) {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return
			}
			drops := isErr(pkg.Info.TypeOf(call))
			if tup, ok := pkg.Info.TypeOf(call).(*types.Tuple); ok {
				for i := range tup.Len() {
					drops = drops || isErr(tup.At(i).Type())
				}
			}
			full := callee(call)
			if drops && teardownCallees[full] != "" {
				used[full]++
				return
			}
			name := full[strings.LastIndex(full, ".")+1:]
			if !drops || strings.HasPrefix(full, "fmt.Print") || strings.HasPrefix(full, "fmt.Fprint") ||
				slices.Contains([]string{"Close", "close", "SetDeadline", "SetReadDeadline", "SetWriteDeadline"}, name) {
				return
			}
			pos := l.Fset.Position(call.Pos())
			rel, _ := filepath.Rel(wd, pos.Filename)
			key := filepath.ToSlash(rel) + ":" + types.ExprString(call.Fun)
			if _, ok := discardAllowlist[key]; ok {
				used[key]++
				return
			}
			t.Errorf("%s: %s drops the error from %s: handle it, count it, or list %q in discardAllowlist with the reason", pos, kind, types.ExprString(call.Fun), key)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Rhs) == 1 && !slices.ContainsFunc(n.Lhs, func(e ast.Expr) bool { return types.ExprString(e) != "_" }) {
						check(n.Rhs[0], "blank assignment")
					}
				case *ast.ExprStmt:
					check(n.X, "bare call")
				case *ast.DeferStmt:
					check(n.Call, "deferred call")
				case *ast.GoStmt:
					check(n.Call, "go statement")
				case *ast.CallExpr:
					if callee(n) != "fmt.Errorf" || len(n.Args) < 2 {
						break
					}
					lit, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit)
					if ok && !wrapVerb.MatchString(strings.ReplaceAll(lit.Value, "%%", "")) &&
						slices.ContainsFunc(n.Args[1:], func(a ast.Expr) bool { return isErr(pkg.Info.TypeOf(a)) }) {
						t.Errorf("%s: fmt.Errorf wraps an error without %%w: errors.Is/As cannot see through it", l.Fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
	for key := range discardAllowlist {
		if used[key] != 1 {
			t.Errorf("discardAllowlist entry %q covers %d sites, want 1: delete it, or give each site its own entry", key, used[key])
		}
	}
	for key := range teardownCallees {
		if used[key] == 0 {
			t.Errorf("teardownCallees entry %q covers no site: delete it", key)
		}
	}
}

// mapAllowlist names, as "file:declaration", each map type in the
// deterministic packages. Map iteration order is random, so a map that
// is ranged can leak that order into a run; a map is allowed only where
// it is never ranged. Each entry covers exactly one map type.
var mapAllowlist = map[string]string{
	"internal/protocol/protocol.go:orderNames": "Order → name table: looked up, never ranged",
}

// TestSimDeterminism keeps the simulation core a pure function of its
// inputs, so the paper's sweeps replay bit for bit: in internal/{sim,
// engine,protocol,optimal} no wall-clock read (time.Now, time.Since), no
// draw from the process-global math/rand source (a seeded *rand.Rand
// built with the New* constructors is the only way in), and no map type
// off mapAllowlist.
func TestSimDeterminism(t *testing.T) {
	randTypes := []string{"Rand", "Source", "Source64", "PCG", "ChaCha8", "Zipf"}
	fset := token.NewFileSet()
	used := make(map[string]int)
	for _, dir := range []string{"internal/sim", "internal/engine", "internal/protocol", "internal/optimal"} {
		files, err := filepath.Glob(dir + "/*.go")
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			imports := make(map[string]string) // local name → import path
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := map[string]string{"time": "time", "math/rand": "rand", "math/rand/v2": "rand"}[p]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
			// inspect checks one top-level declaration, named decl.
			inspect := func(decl string, node ast.Node) {
				ast.Inspect(node, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						x, ok := n.X.(*ast.Ident)
						if !ok {
							break
						}
						switch sel := n.Sel.Name; imports[x.Name] {
						case "time":
							if sel == "Now" || sel == "Since" {
								t.Errorf("%s: time.%s reads the wall clock in a deterministic package; derive time from simulation state", fset.Position(n.Pos()), sel)
							}
						case "math/rand", "math/rand/v2":
							if !strings.HasPrefix(sel, "New") && !slices.Contains(randTypes, sel) {
								t.Errorf("%s: %s.%s draws from the process-global random source; use a seeded *rand.Rand carried in the run's state", fset.Position(n.Pos()), x.Name, sel)
							}
						}
					case *ast.MapType:
						key := filepath.ToSlash(path) + ":" + decl
						if _, ok := mapAllowlist[key]; ok {
							used[key]++
							break
						}
						t.Errorf("%s: map type in a deterministic package: its iteration order is random; use a slice or an indexed table, or list %q in mapAllowlist with why it is never ranged", fset.Position(n.Pos()), key)
					}
					return true
				})
			}
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					inspect(d.Name.Name, d)
					continue
				}
				for _, spec := range decl.(*ast.GenDecl).Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						inspect(s.Names[0].Name, s)
					case *ast.TypeSpec:
						inspect(s.Name.Name, s)
					}
				}
			}
		}
	}
	for key := range mapAllowlist {
		if used[key] != 1 {
			t.Errorf("mapAllowlist entry %q covers %d map types, want 1: delete it, or give each its own entry", key, used[key])
		}
	}
}

// coreImports is everything the protocol core may import: it is a pure
// state machine both drivers share, so no clock, network, lock, simulator
// or runtime reaches it.
var coreImports = []string{"cmp", "fmt", "math/rand/v2", "slices"}

// TestProtocolCoreIsPure keeps internal/protocol free of time, I/O,
// goroutines and the drivers: its non-test files import only coreImports
// and start no goroutine.
func TestProtocolCoreIsPure(t *testing.T) {
	files, err := filepath.Glob("internal/protocol/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !slices.Contains(coreImports, p) {
				t.Errorf("%s imports %q: the protocol core imports only %v; a clock, a network or a driver belongs to the driver", fset.Position(imp.Pos()), p, coreImports)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement in the protocol core; concurrency belongs to the driver", fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// TestNoFunctionStyleAtomics keeps every atomic a typed atomic.Int64 and
// friends, where a mixed plain access does not compile: the function-style
// API on a plain field is the only way to write that race.
func TestNoFunctionStyleAtomics(t *testing.T) {
	funcStyle := regexp.MustCompile(`^(Add|Load|Store|Swap|CompareAndSwap|And|Or)[A-Z]`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || path == filepath.FromSlash("live/wirebench.go") {
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

// readerAllowlist names, as "package.Name" or "package.Type.Method"
// relative to the module, each exported internal/ name that needs no
// non-test reader, with the reason. Each entry must name a declaration.
var readerAllowlist = map[string]string{
	"internal/optimal.Fork": "reference oracle: Theorem 1 on one fork, written out, that the tests hold Compute and Weight to",
}

// interfaceMethods are method names a package satisfies an interface
// with; a call through the interface is not a use of the method itself.
// Each entry must cover at least one method.
var interfaceMethods = map[string]string{
	"String":        "fmt.Stringer: fmt calls it",
	"Error":         "error: callers read it through the interface",
	"Unwrap":        "errors.Is and errors.As call it",
	"MarshalJSON":   "json.Marshaler: encoding/json calls it",
	"UnmarshalJSON": "json.Unmarshaler: encoding/json calls it",
	"MarshalText":   "encoding.TextMarshaler: encoding/json calls it",
	"UnmarshalText": "encoding.TextUnmarshaler: encoding/json calls it",
	"Handle":        "sim.Handler: the kernel calls it through the interface",
	"Render":        "bwexp's renderer: the command calls it through the interface",
}

// TestInternalNamesHaveReaders keeps internal/ free of dead names: every
// exported package-level func, type, const and var of a package under
// internal/, and every exported method declared there, must be used by
// the module's non-test code (benchmark/, cmd/, examples/, live/, the
// facade and internal/ itself) outside its own declaration. A method's
// receiver does not count as a use of its type. Exempt are names on the
// facade's surface, which TestExportedAPICompat pins to
// testdata/api_golden.txt, methods on interfaceMethods and names on
// readerAllowlist. live/ is out of scope: it is importable, so its
// exported names are user API.
func TestInternalNamesHaveReaders(t *testing.T) {
	l, err := newLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*loadedPackage
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if names, err := goFilesIn(path); err != nil || len(names) == 0 {
			return err
		}
		pkg, err := l.Load(l.ModulePath() + strings.TrimPrefix("/"+filepath.ToSlash(path), "/."))
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The declarations to account for, each with its extent in the source
	// and its key: the package path relative to the module, a dot, and
	// the name (Type.Method for a method).
	type decl struct {
		key      string
		pos, end token.Pos
		read     bool
	}
	decls := make(map[types.Object]*decl)
	receivers := make(map[token.Pos]bool) // idents in method receivers
	used := make(map[string]bool)         // list entries that cover something
	var facade *loadedPackage
	for _, pkg := range pkgs {
		if pkg.Path == l.ModulePath() {
			facade = pkg
		}
		rel := strings.TrimPrefix(pkg.Path, l.ModulePath()+"/")
		internal := strings.HasPrefix(rel, "internal/")
		add := func(id *ast.Ident, key string, node ast.Node) {
			if internal && id.IsExported() {
				decls[pkg.Info.Defs[id]] = &decl{key: rel + "." + key, pos: node.Pos(), end: node.End()}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id.Pos()] = true
								if _, ok := pkg.Info.Uses[id].(*types.TypeName); ok {
									key = id.Name + "." + d.Name.Name
								}
							}
							return true
						})
						if _, ok := interfaceMethods[d.Name.Name]; ok {
							used[d.Name.Name] = true
							continue
						}
					}
					add(d.Name, key, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
	}
	// The facade's surface: every method reachable through its exported
	// aliases is pinned there.
	for _, name := range facade.Types.Scope().Names() {
		tn, ok := facade.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := range ms.Len() {
				if d := decls[ms.At(i).Obj()]; d != nil {
					d.read = true
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if d := decls[obj]; d != nil && !receivers[id.Pos()] && (id.Pos() < d.pos || id.Pos() >= d.end) {
				d.read = true
			}
		}
	}
	for _, d := range slices.SortedFunc(maps.Values(decls), func(a, b *decl) int { return strings.Compare(a.key, b.key) }) {
		if _, ok := readerAllowlist[d.key]; ok {
			used[d.key] = true
			continue
		}
		if !d.read {
			t.Errorf("%s: %s has no reader in non-test code: delete it, or list it in readerAllowlist with the reason", l.Fset.Position(d.pos), d.key)
		}
	}
	for key := range readerAllowlist {
		if !used[key] {
			t.Errorf("readerAllowlist entry %q names no exported internal/ declaration: delete it", key)
		}
	}
	for name := range interfaceMethods {
		if !used[name] {
			t.Errorf("interfaceMethods entry %q names no method declared in the module: delete it", name)
		}
	}
}
