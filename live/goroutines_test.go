package live

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// detachedGo names the `go` statements allowed outside goTracked, by
// enclosing function and spawned callee, each with the reason it cannot
// go through the node's WaitGroup.
var detachedGo = map[string]string{
	"parentSupervisor: n.Close": "Close waits on the supervisor's own WaitGroup entry, so the supervisor cannot wait for Close; Close is idempotent and returns on its own",
	"WireBench: func literal":   "the codec bench has no Node; its goroutines count on a local WaitGroup that WireBench waits for before it returns",
}

// TestGoroutinesStartTracked keeps every goroutine a Node owns behind
// goTracked, which pairs wg.Add with wg.Done by construction: in
// non-test code of this package a `go` statement outside goTracked must
// be listed in detachedGo, and n.wg is counted nowhere else. A loop
// spawned bare, or one that retires the WaitGroup itself, is the leak
// (or the negative counter) Close would hang or panic on.
func TestGoroutinesStartTracked(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "goTracked" {
				continue
			}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.GoStmt:
					callee := "func literal"
					if _, lit := node.Call.Fun.(*ast.FuncLit); !lit {
						callee = types.ExprString(node.Call.Fun)
					}
					key := fd.Name.Name + ": " + callee
					if _, ok := detachedGo[key]; !ok {
						t.Errorf("%s: go statement outside goTracked (%s): start it with n.goTracked, or list it in detachedGo with the reason", fset.Position(node.Pos()), key)
					}
					used[key] = true
				case *ast.SelectorExpr:
					if x, ok := node.X.(*ast.SelectorExpr); ok && x.Sel.Name == "wg" && (node.Sel.Name == "Add" || node.Sel.Name == "Done") {
						t.Errorf("%s: %s outside goTracked: the node's WaitGroup is counted there only", fset.Position(node.Pos()), types.ExprString(node))
					}
				}
				return true
			})
		}
	}
	for key := range detachedGo {
		if !used[key] {
			t.Errorf("detachedGo lists %q but no such go statement exists: delete the entry", key)
		}
	}
}

// mutexAllowlist names every sync.Mutex or RWMutex in non-test code of
// this package, as "Type.field", each with the reason it exists. Node
// state has none: one goroutine owns it (ownerLoop).
var mutexAllowlist = map[string]string{
	"conn.wmu":          "serializes one socket's writes among the goroutines that share it (port or uplink writer, heartbeat, hello-ack, farewell); it guards no other state",
	"flightRecorder.mu": "the recorder ring is appended by the owner and read by Events, TraceDump and /debug/events from any goroutine",
	"FaultPlan.mu":      "one plan is consulted by every reader and writer of the node's conns, and by the test that scripted it",
}

// TestMutexAllowlist keeps the package's mutexes to the allowlist: a
// sync.Mutex or RWMutex in non-test code must be a struct field listed in
// mutexAllowlist with its reason, and an entry that names no such field
// fails too. A mutex on Node is the lock-sharing design the owner loop
// replaced; it fails here.
func TestMutexAllowlist(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := make(map[string]bool)
	// mutexType is the sync.Mutex or RWMutex selector e names or points
	// to, nil when e is no mutex.
	mutexType := func(e ast.Expr) ast.Expr {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if s := types.ExprString(e); s == "sync.Mutex" || s == "sync.RWMutex" {
			return e
		}
		return nil
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		fields := make(map[ast.Expr]bool) // the mutex types of struct fields
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fd := range st.Fields.List {
				mt := mutexType(fd.Type)
				if mt == nil {
					continue
				}
				fields[mt] = true
				names := []string{types.ExprString(mt)[len("sync."):]} // embedded
				if len(fd.Names) > 0 {
					names = names[:0]
					for _, id := range fd.Names {
						names = append(names, id.Name)
					}
				}
				for _, field := range names {
					key := ts.Name.Name + "." + field
					if _, ok := mutexAllowlist[key]; !ok {
						t.Errorf("%s: mutex %s is not on the allowlist: give its state to the owner, or list it in mutexAllowlist with the reason", fset.Position(fd.Pos()), key)
					}
					used[key] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(node ast.Node) bool {
			if e, ok := node.(*ast.SelectorExpr); ok && mutexType(e) != nil && !fields[e] {
				t.Errorf("%s: %s outside a struct field: mutexes are allowlisted by Type.field", fset.Position(e.Pos()), types.ExprString(e))
			}
			return true
		})
	}
	for key := range mutexAllowlist {
		if !used[key] {
			t.Errorf("mutexAllowlist lists %q but no such field exists: delete the entry", key)
		}
	}
}
