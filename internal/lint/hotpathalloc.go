package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bwcs/internal/lint/analysis"
)

// HotPathAlloc enforces allocation discipline on the steady-state hot
// paths: any function annotated //bwvet:hotpath must not contain
// heap-allocating constructs — map/slice composite literals,
// address-taken composite literals, make/new, fmt.Sprintf-family and
// errors.New calls, non-constant string concatenation, capturing
// closures, interface boxing of non-pointer values at call sites, and
// append growth on slices declared fresh in the same function.
//
// Two escape-aware allowances keep the rule honest rather than noisy:
// allocations lexically inside an if-statement whose condition involves
// len/cap or a nil comparison are init-gates (the free-list-miss /
// buffer-growth / lazy-map idiom: amortized, not per-call), and
// allocations inside panic arguments or a return carrying a non-nil
// error are cold paths (taken once, on failure). Everything else needs
// a //lint:bwvet-ignore with a reason.
//
// The seed list below names the functions PR 8's allocation hunt fought
// for (sim event loop, window onset scan, optimal.Weight, the binary
// codec) and the live node's task pool; a seeded function missing its
// annotation is itself a finding, so the protection cannot be dropped by
// deleting a comment. The TestHotPathAllocsPinned probes cross-check the
// same functions against testing.AllocsPerRun, so the static rule and
// runtime truth cannot drift apart.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "functions annotated //bwvet:hotpath must not contain " +
		"heap-allocating constructs outside init-gates and cold error paths",
	Run: runHotPathAlloc,
}

// HotPathSeeds maps import paths to the function keys ("Func" or
// "Recv.Method") that must carry the //bwvet:hotpath annotation: the
// warm paths whose zero-allocation behavior the ROADMAP's throughput
// numbers depend on. Exported so the runtime-probe audit test can
// cross-check it against the annotations actually present.
var HotPathSeeds = map[string][]string{
	"bwcs/internal/sim": {
		"Simulator.Schedule", "Simulator.Cancel", "Simulator.Step",
		"Simulator.Run", "Simulator.RunUntil", "Simulator.recycle",
		"Simulator.push", "Simulator.remove", "Simulator.up",
		"Simulator.down", "Simulator.swap",
	},
	"bwcs/internal/window": {
		"Series.cmpOptimal", "Series.span", "Series.AboveOptimal",
		"Series.AtOrAboveOptimal", "Series.Onset", "Series.OnsetInclusive",
		"Series.onset", "Series.Windows", "Series.Reached",
	},
	"bwcs/internal/optimal": {
		"Weight", "weightCalc.fork", "weightCalc.sortedKids",
	},
	"bwcs/internal/metrics": {
		"TimeSeries.Append", "TimeSeries.downsample",
	},
	"bwcs/live": {
		"appendFrame", "decodeFrame", "appendStringField", "appendBytesField",
		"appendBool", "appendU64Field", "readFrame", "interner.intern",
		"frameReader.uvarint", "frameReader.intField", "frameReader.raw",
		"frameReader.boolField",
		"taskPool.push", "taskPool.pop", "taskPool.pick", "taskPool.queue",
		"appQueue.at",
	},
}

// HotPathKey returns fd's key in HotPathSeeds form: "Func" for a plain
// function, "Recv.Method" for a method (pointer receivers included).
func HotPathKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// IsHotPathAnnotated reports whether fd carries the //bwvet:hotpath
// directive in its doc comment.
func IsHotPathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//bwvet:hotpath" || strings.HasPrefix(c.Text, "//bwvet:hotpath ") {
			return true
		}
	}
	return false
}

func runHotPathAlloc(pass *analysis.Pass) error {
	seedSet := make(map[string]bool)
	for _, k := range HotPathSeeds[pass.Pkg.Path()] {
		seedSet[k] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := HotPathKey(fd)
			annotated := IsHotPathAnnotated(fd)
			if seedSet[key] && !annotated {
				pass.Reportf(fd.Name.Pos(), "%s is a seeded hot path (bwvet hotpathalloc config) but is missing its //bwvet:hotpath annotation", key)
			}
			if annotated || seedSet[key] {
				checkHotFunc(pass, fd, key)
			}
		}
	}
	return nil
}

// span is a half-open source range [start, end).
type span struct{ start, end token.Pos }

func inSpans(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.start <= pos && pos < s.end {
			return true
		}
	}
	return false
}

// checkHotFunc walks one annotated function body and reports every
// allocating construct outside the cold and init-gate allowances.
func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl, key string) {
	cold := coldSpans(pass, fd)
	gates := gateSpans(pass, fd)
	fresh := freshSlices(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := capturedVar(pass, fd, n); capt != "" {
				if !inSpans(cold, n.Pos()) {
					pass.Reportf(n.Pos(), "hot path %s: closure captures %s, allocating per call; use a method value or hoist state into a struct", key, capt)
				}
				return false
			}
			return true
		case *ast.CompositeLit:
			if inSpans(cold, n.Pos()) {
				return true
			}
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "hot path %s: map literal allocates on every call; hoist it or reuse a field", key)
			case *types.Slice:
				pass.Reportf(n.Pos(), "hot path %s: slice literal allocates on every call; reuse a buffer", key)
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			cl, ok := ast.Unparen(n.X).(*ast.CompositeLit)
			if !ok || inSpans(cold, n.Pos()) {
				return true
			}
			if t := pass.TypesInfo.TypeOf(cl); t != nil {
				switch t.Underlying().(type) {
				case *types.Struct, *types.Array:
					pass.Reportf(n.Pos(), "hot path %s: &composite literal escapes to the heap; reuse a pooled or field-backed value", key)
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD || inSpans(cold, n.Pos()) {
				return true
			}
			if t := pass.TypesInfo.TypeOf(n); t != nil && isString(t) {
				if tv, ok := pass.TypesInfo.Types[n]; !ok || tv.Value == nil {
					pass.Reportf(n.Pos(), "hot path %s: string concatenation allocates; append into a reusable []byte instead", key)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, key, cold, gates, fresh)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, key string, cold, gates []span, fresh map[types.Object]bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make", "new":
				if !inSpans(cold, call.Pos()) && !inSpans(gates, call.Pos()) {
					pass.Reportf(call.Pos(), "hot path %s: %s allocates on every call; hoist the allocation or gate it behind a len/cap/nil check", key, b.Name())
				}
			case "append":
				if len(call.Args) == 0 || inSpans(cold, call.Pos()) {
					return
				}
				if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && fresh[pass.TypesInfo.ObjectOf(dst)] {
					pass.Reportf(call.Pos(), "hot path %s: append grows fresh slice %s without preallocation; size it up front or reuse a buffer", key, dst.Name)
				}
			}
			return
		}
	}

	// Formatting and error-construction helpers allocate their result.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil {
			full := fn.Pkg().Path() + "." + fn.Name()
			switch full {
			case "fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln", "fmt.Errorf", "errors.New":
				if !inSpans(cold, call.Pos()) {
					pass.Reportf(call.Pos(), "hot path %s: %s allocates on every call; restrict it to cold error paths", key, full)
				}
				return
			}
		}
	}

	// Interface boxing: a non-pointer, non-constant concrete argument
	// passed to an interface parameter is copied to the heap.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || inSpans(cold, call.Pos()) {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, no per-element boxing
			}
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
			continue // constants and nil are boxed statically
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: stored directly in the interface word
		}
		pass.Reportf(arg.Pos(), "hot path %s: passing non-pointer %s to an interface parameter boxes it on the heap", key, at.String())
	}
}

// coldSpans collects the regions where allocation is tolerated because
// execution reaches them at most once per failure: panic arguments and
// return statements that carry a non-nil error.
func coldSpans(pass *analysis.Pass, fd *ast.FuncDecl) []span {
	var spans []span
	errIdx := errorResultIndexes(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin && b.Name() == "panic" {
					spans = append(spans, span{n.Pos(), n.End()})
				}
			}
		case *ast.ReturnStmt:
			if returnsNonNilError(n, errIdx) {
				spans = append(spans, span{n.Pos(), n.End()})
			}
		}
		return true
	})
	return spans
}

// errorResultIndexes returns the positions of error-typed results in
// fd's signature (flattened), or nil if there are none.
func errorResultIndexes(pass *analysis.Pass, fd *ast.FuncDecl) []int {
	obj := pass.TypesInfo.ObjectOf(fd.Name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			idx = append(idx, i)
		}
	}
	return idx
}

func returnsNonNilError(ret *ast.ReturnStmt, errIdx []int) bool {
	if len(errIdx) == 0 {
		return false
	}
	for _, i := range errIdx {
		if i >= len(ret.Results) {
			// Bare return or a multi-value call: treat as cold only when
			// the single result is itself a call (its error flows through).
			return len(ret.Results) == 1
		}
		if id, ok := ast.Unparen(ret.Results[i]).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}

// gateSpans collects if-statements whose condition (or init) involves a
// len/cap call or a nil comparison: the free-list-miss / buffer-growth /
// lazy-init idiom, where allocation is amortized rather than per-call.
// The span covers the whole if (else branch included: "free list hit,
// else allocate" gates the allocation in the else arm).
func gateSpans(pass *analysis.Pass, fd *ast.FuncDecl) []span {
	var spans []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		gated := false
		check := func(e ast.Node) {
			if e == nil {
				return
			}
			ast.Inspect(e, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.CallExpr:
					if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
						if b, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin && (b.Name() == "len" || b.Name() == "cap") {
							gated = true
						}
					}
				case *ast.BinaryExpr:
					if m.Op == token.EQL || m.Op == token.NEQ {
						if isNilIdent(m.X) || isNilIdent(m.Y) {
							gated = true
						}
					}
				}
				return true
			})
		}
		if ifs.Init != nil {
			check(ifs.Init)
		}
		check(ifs.Cond)
		if gated {
			spans = append(spans, span{ifs.Pos(), ifs.End()})
		}
		return true
	})
	return spans
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// freshSlices returns the objects of local variables declared as empty
// slices with no capacity (`var x []T`): appending to one of these
// grows from zero on every call.
func freshSlices(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		decl, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, s := range gd.Specs {
			vs, ok := s.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.TypesInfo.ObjectOf(name)
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// capturedVar returns the name of a variable the literal captures from
// the enclosing function (forcing a heap-allocated closure), or "".
func capturedVar(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	capt := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capt != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but outside
		// the literal (package-level vars are not captures).
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			capt = v.Name()
		}
		return true
	})
	return capt
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
