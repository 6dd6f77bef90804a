package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bwcs/internal/lint/analysis"
)

// ErrDiscipline forbids silently discarded errors in the live runtime
// and the command binaries: `_ =` assignments and bare/deferred/go
// calls that drop an error-typed result are findings unless the callee
// is on the teardown allowlist (Close and deadline setters, bufio
// Flush, fmt printing, and the status server's response writes — paths
// where the error is uninformative or the connection is already being
// torn down). It also requires fmt.Errorf wrapping to use %w when an
// error is among the arguments, so errors.Is/As keep working through
// the wrap.
var ErrDiscipline = &analysis.Analyzer{
	Name: "errdiscipline",
	Doc: "no silently discarded error returns in live/ and cmd/ outside " +
		"the teardown allowlist; fmt.Errorf wrapping must use %w",
	Match: func(path string) bool {
		return path == "bwcs/live" || strings.HasPrefix(path, "bwcs/cmd/")
	},
	Run: runErrDiscipline,
}

func runErrDiscipline(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			case *ast.ExprStmt:
				checkBareCall(pass, n.X, "bare call")
			case *ast.DeferStmt:
				checkBareCall(pass, n.Call, "deferred call")
			case *ast.GoStmt:
				checkBareCall(pass, n.Call, "go statement")
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankAssign flags `_ = f()` / `_, _ = f()` where every
// left-hand side is blank and f returns an error.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !returnsError(pass, call) || allowedDiscard(pass, call) {
		return
	}
	pass.Reportf(as.Pos(), "error discarded: %s returns an error that is dropped; handle it, surface it into a counter, or add a reasoned //lint:bwvet-ignore", calleeName(pass, call))
}

// checkBareCall flags expression/defer/go calls whose error result
// vanishes without even a blank assignment to mark the intent.
func checkBareCall(pass *analysis.Pass, e ast.Expr, kind string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !returnsError(pass, call) || allowedDiscard(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "error ignored: this %s drops the error from %s; handle it, surface it into a counter, or add a reasoned //lint:bwvet-ignore", kind, calleeName(pass, call))
}

// returnsError reports whether the call produces at least one
// error-typed result.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// allowedDiscard is the teardown allowlist: callees whose errors are
// legitimately uninteresting at their call sites in this repo.
func allowedDiscard(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	name := fn.Name()
	// Teardown: close errors mean the peer is already gone.
	if name == "Close" || name == "close" {
		return true
	}
	// Deadline setters fail only on closed sockets, which the next I/O
	// call reports anyway.
	if name == "SetDeadline" || name == "SetReadDeadline" || name == "SetWriteDeadline" {
		return true
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch {
	case pkg == "bufio" && name == "Flush":
		return true // teardown flush on a conn already being closed
	case pkg == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
		return true // terminal/stderr writes
	case pkg == "net/http" && name == "Serve" && recvTypeName(fn) == "Server":
		return true // returns ErrServerClosed on orderly shutdown
	case pkg == "encoding/json" && name == "Encode" && recvTypeName(fn) == "Encoder":
		return true // status-server response write: client went away
	case pkg == "bwcs/internal/metrics" && name == "WritePrometheus":
		return true // status-server response write: client went away
	}
	return false
}

// recvTypeName names a method's receiver type ("" for a plain function).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	case *ast.Ident:
		return fun.Name
	}
	return "the call"
}

// checkErrorfWrap flags fmt.Errorf calls that take an error argument
// but use no %w verb: the wrap breaks errors.Is/As.
func checkErrorfWrap(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || hasWrapVerb(lit.Value) {
		return
	}
	for _, arg := range call.Args[1:] {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && isErrorType(t) {
			pass.Reportf(call.Pos(), "fmt.Errorf wraps an error without %%w: errors.Is/As cannot see through this wrap; use %%w for the error argument")
			return
		}
	}
}

// hasWrapVerb scans the raw quoted literal for a %w verb. Escape
// sequences and %% are skipped, so "100%%wrong" holds none.
func hasWrapVerb(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '\\':
			i++ // escape sequence: the next byte is literal
		case '%':
			i++
			for i < len(raw) && strings.IndexByte("#0- +.*123456789[]", raw[i]) >= 0 {
				i++
			}
			if i < len(raw) && raw[i] == 'w' {
				return true
			}
		}
	}
	return false
}
