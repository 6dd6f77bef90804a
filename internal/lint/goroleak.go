package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"bwcs/internal/lint/analysis"
)

// GoroLeak ties every goroutine spawned in the live runtime and the
// command binaries to a shutdown path the analyzer can see. A `go`
// statement must satisfy one of:
//
//   - WaitGroup pairing: the goroutine body (function literal or the
//     spawned method, cross-method via the package fact store) calls
//     Done on a sync.WaitGroup, and the spawning function calls Add on
//     the same WaitGroup before the spawn;
//   - lifecycle wait: the goroutine body blocks on a done-style signal —
//     a receive on a chan struct{} (the done-channel idiom), a
//     ctx.Done() select case, or a range over a channel (which ends when
//     the channel closes);
//   - a reasoned //lint:bwvet-ignore for the deliberate exceptions.
//
// The live runtime has a dozen spawn sites guarded only by convention;
// one forgotten Done is a leaked goroutine that Close waits on forever,
// which is exactly the hang shape the heartbeat/sever tests exist to
// prevent.
var GoroLeak = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "every goroutine in live/ and cmd/ must have a visible shutdown " +
		"path: WaitGroup Add/Done pairing or a done/ctx select in its body",
	Match: func(path string) bool {
		return path == "bwcs/live" || strings.HasPrefix(path, "bwcs/cmd/")
	},
	Run: runGoroLeak,
}

// goroFact records what one method offers as a shutdown path; facts are
// computed once per package and cached in the fact store so a spawn
// site in one method can trust a Done in another.
type goroFact struct {
	doneFields    []string // receiver WaitGroup fields this method calls Done on
	lifecycleWait bool     // body blocks on a done channel / ctx / channel range
}

const goroFactKey = "goroleak.methods"

func runGoroLeak(pass *analysis.Pass) error {
	facts := methodFacts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkSpawn(pass, fd, g, facts)
				return true
			})
		}
	}
	return nil
}

// methodFacts gathers (or retrieves from the package fact store) the
// shutdown-path facts for every method and function in the package.
func methodFacts(pass *analysis.Pass) map[string]*goroFact {
	if v, ok := pass.Facts.Get(goroFactKey); ok {
		return v.(map[string]*goroFact)
	}
	facts := make(map[string]*goroFact)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			facts[funcKey(fn)] = &goroFact{
				doneFields:    wgDoneFields(pass, fd.Body),
				lifecycleWait: hasLifecycleWait(pass, fd.Body),
			}
		}
	}
	pass.Facts.Set(goroFactKey, facts)
	return facts
}

func checkSpawn(pass *analysis.Pass, enclosing *ast.FuncDecl, g *ast.GoStmt, facts map[string]*goroFact) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		// Inline body: look for Done and lifecycle waits directly.
		if expr := wgDoneExpr(pass, fun.Body); expr != "" {
			if !addBefore(pass, enclosing, g, func(recv string) bool { return recv == expr }) {
				pass.Reportf(g.Pos(), "goroutine calls %s.Done but no %s.Add is visible before the spawn in %s: pair them or the WaitGroup cannot guard this goroutine", expr, expr, enclosing.Name.Name)
			}
			return
		}
		if hasLifecycleWait(pass, fun.Body) {
			return
		}
		pass.Reportf(g.Pos(), "goroutine has no visible shutdown path: pair it with a WaitGroup Add/Done, block on a done/ctx channel in its body, or carry a reasoned //lint:bwvet-ignore")
	case *ast.SelectorExpr:
		// Spawned method: consult the package facts.
		checkSpawnByKey(pass, enclosing, g, facts, methodKeyOf(pass, fun))
	case *ast.Ident:
		checkSpawnByKey(pass, enclosing, g, facts, fun.Name)
	default:
		pass.Reportf(g.Pos(), "goroutine has no visible shutdown path: add WaitGroup Add/Done pairing, a done/ctx wait in its body, or a reasoned //lint:bwvet-ignore")
	}
}

// checkSpawnByKey validates a spawned named function or method against
// the package facts recorded for it.
func checkSpawnByKey(pass *analysis.Pass, enclosing *ast.FuncDecl, g *ast.GoStmt, facts map[string]*goroFact, key string) {
	if fact, ok := facts[key]; ok {
		if len(fact.doneFields) > 0 {
			for _, field := range fact.doneFields {
				if addBefore(pass, enclosing, g, func(recv string) bool {
					return recv == field || strings.HasSuffix(recv, "."+field)
				}) {
					return
				}
			}
			pass.Reportf(g.Pos(), "goroutine %s retires a WaitGroup (%s) but no matching Add is visible before the spawn in %s", key, strings.Join(fact.doneFields, ", "), enclosing.Name.Name)
			return
		}
		if fact.lifecycleWait {
			return
		}
	}
	pass.Reportf(g.Pos(), "goroutine %s has no visible shutdown path: add WaitGroup Add/Done pairing, a done/ctx wait in its body, or a reasoned //lint:bwvet-ignore", key)
}

// methodKeyOf resolves `x.M` to its "Type.M" fact key via x's static
// type, falling back to the printed selector.
func methodKeyOf(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok {
		return funcKey(fn)
	}
	return types.ExprString(sel)
}

// funcKey is fn's key in the fact store: "Func" for a plain function,
// "Recv.Method" for a method (pointer receivers included).
func funcKey(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// wgDoneFields returns the WaitGroup receiver-field names body calls
// Done on ("wg" for n.wg.Done()).
func wgDoneFields(pass *analysis.Pass, body ast.Node) []string {
	var fields []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isWaitGroupCall(pass, call, "Done") {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr)
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			fields = append(fields, x.Sel.Name)
		case *ast.Ident:
			fields = append(fields, x.Name)
		}
		return true
	})
	return fields
}

// wgDoneExpr returns the printed receiver of the first WaitGroup Done
// call in body ("n.wg"), or "".
func wgDoneExpr(pass *analysis.Pass, body ast.Node) string {
	expr := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if expr != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(pass, call, "Done") {
			expr = types.ExprString(call.Fun.(*ast.SelectorExpr).X)
		}
		return true
	})
	return expr
}

// addBefore reports whether the enclosing function calls Add on a
// matching WaitGroup receiver at a position before the go statement.
func addBefore(pass *analysis.Pass, enclosing *ast.FuncDecl, g *ast.GoStmt, match func(recv string) bool) bool {
	found := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= g.Pos() || !isWaitGroupCall(pass, call, "Add") {
			return true
		}
		if match(types.ExprString(call.Fun.(*ast.SelectorExpr).X)) {
			found = true
		}
		return true
	})
	return found
}

func isWaitGroupCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return recvTypeName(fn) == "WaitGroup" && fn.Name() == name
}

// hasLifecycleWait reports whether body blocks on a shutdown-style
// signal: a receive on a chan struct{} (any position, select case or
// direct), a ctx.Done() case, or a range over a channel.
func hasLifecycleWait(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && isDoneChannel(pass, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isDoneChannel reports whether e is a channel of struct{} — the done
// idiom — including the <-chan struct{} a ctx.Done() call returns.
func isDoneChannel(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
