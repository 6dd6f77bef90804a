package live

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// kindSelectors pins the bijection between wire kinds and fault-injection
// selectors. Adding a kind* constant to wire.go without extending this
// map — which requires adding the matching Frame* selector to
// faultinject.go to compile — fails TestFaultSelectorExhaustive, so a new
// frame kind can never ship without fault coverage.
var kindSelectors = map[string]struct {
	kind  msgKind
	frame FrameKind
}{
	"kindHello":     {kindHello, FrameHello},
	"kindRequest":   {kindRequest, FrameRequest},
	"kindChunk":     {kindChunk, FrameChunk},
	"kindResult":    {kindResult, FrameResult},
	"kindShutdown":  {kindShutdown, FrameShutdown},
	"kindHeartbeat": {kindHeartbeat, FrameHeartbeat},
	"kindHelloAck":  {kindHelloAck, FrameHelloAck},
	"kindGoodbye":   {kindGoodbye, FrameGoodbye},
	"kindResultAck": {kindResultAck, FrameResultAck},
}

// constNames parses file and returns the package-level constant names
// declared with the given type name (matched syntactically: the first
// name of each const spec group carries the type).
func constNames(t *testing.T, file, typeName string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	names := make(map[string]bool)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		inType := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			// Within one const block, a spec with no type continues the
			// iota sequence of the last typed spec.
			if vs.Type != nil {
				id, ok := vs.Type.(*ast.Ident)
				inType = ok && id.Name == typeName
			}
			if !inType {
				continue
			}
			for _, name := range vs.Names {
				names[name.Name] = true
			}
		}
	}
	return names
}

// TestFaultSelectorExhaustive cross-checks the Frame* selector set of
// faultinject.go against the kind* wire constants of wire.go: every wire
// kind has a selector with the same numeric value, every selector except
// the FrameAny wildcard selects a real kind, and the test's own pin map
// covers the full set.
func TestFaultSelectorExhaustive(t *testing.T) {
	kinds := constNames(t, "wire.go", "msgKind")
	if len(kinds) == 0 {
		t.Fatal("no msgKind constants found in wire.go; did the type move?")
	}
	for name := range kinds {
		if !strings.HasPrefix(name, "kind") {
			t.Errorf("msgKind constant %s breaks the kind* naming convention", name)
		}
		if _, ok := kindSelectors[name]; !ok {
			t.Errorf("wire.go declares %s but this test's kindSelectors map does not cover it: add it here and a Frame%s selector to faultinject.go", name, strings.TrimPrefix(name, "kind"))
		}
	}
	for name := range kindSelectors {
		if !kinds[name] {
			t.Errorf("kindSelectors pins %s, which wire.go no longer declares", name)
		}
	}

	frames := constNames(t, "faultinject.go", "FrameKind")
	if !frames["FrameAny"] {
		t.Error("faultinject.go must keep the FrameAny wildcard selector")
	}
	if FrameAny != 0 {
		t.Errorf("FrameAny = %d, want 0 (the zero value must stay the wildcard)", FrameAny)
	}
	delete(frames, "FrameAny")
	if got, want := len(frames), len(kinds); got != want {
		t.Errorf("faultinject.go has %d Frame selectors for %d wire kinds", got, want)
	}
	for name, pin := range kindSelectors {
		frameName := "Frame" + strings.TrimPrefix(name, "kind")
		if !frames[frameName] {
			t.Errorf("wire kind %s has no %s selector in faultinject.go", name, frameName)
			continue
		}
		if FrameKind(pin.kind) != pin.frame {
			t.Errorf("%s = %d but %s = %d; selector and kind values must match for FaultRule matching to work", name, pin.kind, frameName, pin.frame)
		}
	}
}
