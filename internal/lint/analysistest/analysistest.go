// Package analysistest is a golden-fixture harness for bwvet analyzers,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture packages
// live under testdata/src/<path>, and every line expecting a diagnostic
// carries a // want "regexp" comment (several per line allowed). The
// harness runs the analyzer through the same ignore-filtering pipeline as
// TestRepoInvariants, so //lint:bwvet-ignore behavior is testable in
// fixtures too.
package analysistest

import (
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"bwcs/internal/lint"
	"bwcs/internal/lint/analysis"
	"bwcs/internal/lint/loader"
)

// want expectations attach to the comment's own line; want-above to the
// line directly before it. The latter exists for diagnostics that point
// at a line comment (a malformed //lint:bwvet-ignore), which cannot share
// its line with a second comment.
var wantRE = regexp.MustCompile(`//\s*want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantAboveRE = regexp.MustCompile(`//\s*want-above\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads each fixture package under testdata/src and checks the
// analyzer's diagnostics (after ignore filtering) against the fixtures'
// want comments. The analyzer's Match scope is bypassed: fixtures opt in
// by existing.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	for _, fix := range fixtures {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(fix))
		l, err := loader.New(dir)
		if err != nil {
			t.Fatalf("%s: loader: %v", fix, err)
		}
		pkg, err := l.LoadDir(fix, dir)
		if err != nil {
			t.Fatalf("%s: load: %v", fix, err)
		}
		unscoped := *a
		unscoped.Match = nil
		diags, err := lint.Check(pkg, []*analysis.Analyzer{&unscoped})
		if err != nil {
			t.Fatalf("%s: run: %v", fix, err)
		}
		compare(t, fix, pkg, diags)
	}
}

// expectation is one want regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func compare(t *testing.T, fix string, pkg *loader.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := 0
				var args string
				if m := wantAboveRE.FindStringSubmatch(c.Text); m != nil {
					line, args = -1, m[1]
				} else if m := wantRE.FindStringSubmatch(c.Text); m != nil {
					args = m[1]
				} else {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllStringSubmatch(args, -1) {
					pattern := unquote(arg[1])
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: %s:%d: bad want regexp %q: %v", fix, pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line + line, re: re, raw: pattern})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: [%s] %s", fix, filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: missing diagnostic at %s:%d matching %q", fix, filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// unquote undoes the escaping inside a want "..." argument (\" and \\).
func unquote(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) && (s[i+1] == '"' || s[i+1] == '\\') {
			i++
		}
		out = append(out, s[i])
	}
	return string(out)
}
