package lint

import (
	"go/ast"
	"go/types"

	"bwcs/internal/lint/analysis"
)

// LockDiscipline flags blocking operations performed while a sync.Mutex
// or sync.RWMutex acquired in the same function is still held: channel
// sends and receives outside a select with a default clause, selects with
// no default, sync.WaitGroup.Wait, time.Sleep, and writes/reads on
// net.Conn. Holding a node lock across a network write is
// the exact stall shape the live runtime's ROADMAP incident came from —
// the send blocks, the lock pins every other goroutine, the tree wedges.
//
// The analysis is per-function and syntactic (no interprocedural flow):
// a branch is analyzed with a copy of the held set, and a deferred
// Unlock keeps the lock held to the end of the function. The sanctioned
// non-blocking wake pattern — select with a default — is allowed.
var LockDiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "flag channel operations and blocking calls made while a mutex " +
		"acquired in the same function is held",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walkHeld(pass, n.Body.List, map[string]bool{})
				}
			case *ast.FuncLit:
				// A literal's body runs later (goroutine, callback) or at
				// least in its own locking context; analyze it standalone.
				walkHeld(pass, n.Body.List, map[string]bool{})
			}
			return true
		})
	}
	return nil
}

// walkHeld traverses a statement list in order, tracking which mutexes
// are held, and flags blocking operations inside held regions. held maps
// the lock expression's printed form ("n.mu") to true.
func walkHeld(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, op := lockCall(pass, s.X); key != "" {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				continue
			}
			checkBlocking(pass, s.X, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() releases at return: the region spans the
			// rest of the function, which is exactly what held records.
			if key, _ := lockCall(pass, s.Call); key == "" {
				checkBlocking(pass, s.Call.Fun, held)
			}
		case *ast.GoStmt:
			// The goroutine body runs without this function's locks; the
			// FuncLit case of the inspector analyzes it standalone.
		case *ast.SendStmt:
			if len(held) > 0 {
				pass.Reportf(s.Pos(), "channel send while holding %s: a blocked receiver pins the lock (wrap in a select with default, or send after unlocking)", heldNames(held))
			}
			checkBlocking(pass, s.Value, held)
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault && len(held) > 0 {
				pass.Reportf(s.Pos(), "blocking select while holding %s: no default clause, so the lock is pinned until a case fires", heldNames(held))
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.BlockStmt:
			walkHeld(pass, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				walkHeld(pass, []ast.Stmt{s.Init}, held)
			}
			checkBlocking(pass, s.Cond, held)
			walkHeld(pass, s.Body.List, copyHeld(held))
			if s.Else != nil {
				walkHeld(pass, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			walkHeld(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			walkHeld(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.AssignStmt:
			for _, e := range s.Rhs {
				checkBlocking(pass, e, held)
			}
		case *ast.ReturnStmt:
			for _, e := range s.Results {
				checkBlocking(pass, e, held)
			}
		default:
			// Other statements cannot block on their own.
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func heldNames(held map[string]bool) string {
	// Deterministic smallest name, enough for a message.
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// lockCall recognizes x.Lock/RLock/Unlock/RUnlock where the method is
// sync.Mutex's or sync.RWMutex's (including embedded ones) and returns
// the lock expression's printed form and the method name.
func lockCall(pass *analysis.Pass, e ast.Expr) (key, op string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name()
	}
	return "", ""
}

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

// checkBlocking flags blocking expressions (receives and known blocking
// calls) reachable in e while locks are held. Function literals inside e
// are skipped — they execute in their own context.
func checkBlocking(pass *analysis.Pass, e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "channel receive while holding %s: the lock is pinned until a value arrives", heldNames(held))
			}
		case *ast.CallExpr:
			if msg := blockingCall(pass, n); msg != "" {
				pass.Reportf(n.Pos(), "%s while holding %s: a stalled peer pins the lock for every other goroutine", msg, heldNames(held))
			}
		}
		return true
	})
}

// blockingCall recognizes calls that can block indefinitely: WaitGroup
// waits, time.Sleep, and reads/writes on net.Conn (the live runtime's
// network I/O paths).
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "sync":
		if recvTypeName(fn) == "WaitGroup" && fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	}
	// Interface or concrete net.Conn I/O: a Read/Write method on a type
	// satisfying net.Conn.
	if fn.Name() == "Read" || fn.Name() == "Write" {
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil && implementsNetConn(t) {
			return "net.Conn." + fn.Name()
		}
	}
	return ""
}

// netConnMethods is the method-set fingerprint used to recognize
// net.Conn-like values without importing net's type object directly.
var netConnMethods = []string{"Read", "Write", "Close", "LocalAddr", "RemoteAddr", "SetDeadline"}

func implementsNetConn(t types.Type) bool {
	for _, name := range netConnMethods {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}
