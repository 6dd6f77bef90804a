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
