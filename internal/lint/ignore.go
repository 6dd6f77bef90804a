package lint

import (
	"go/token"
	"os"
	"regexp"
	"strings"

	"bwcs/internal/lint/analysis"
	"bwcs/internal/lint/loader"
)

// The suppression escape hatch. The reason is mandatory: an unexplained
// ignore hides an invariant violation from the next reader.
var ignoreRE = regexp.MustCompile(`^//\s*lint:bwvet-ignore(?:[ \t]+(.*))?$`)

// ignoreDirective is one //lint:bwvet-ignore comment.
type ignoreDirective struct {
	pos        token.Pos
	line       int
	file       string
	reason     string
	standalone bool // comment is alone on its line: it covers the next line
	used       bool // suppressed at least one diagnostic this run
}

// collectIgnores gathers every bwvet-ignore directive in the package.
func collectIgnores(pkg *loader.Package) []*ignoreDirective {
	var directives []*ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				directives = append(directives, &ignoreDirective{
					pos:        c.Pos(),
					line:       pos.Line,
					file:       pos.Filename,
					reason:     strings.TrimSpace(m[1]),
					standalone: onlyCommentOnLine(pos),
				})
			}
		}
	}
	return directives
}

// applyIgnores drops diagnostics covered by a well-formed ignore
// directive (same line as the finding, or the line directly above when
// the comment stands alone). It appends a finding for each malformed
// directive — a bwvet-ignore with no reason — and for each reasoned
// directive that suppressed nothing: a stale ignore is a silenced alarm
// nobody is ringing anymore, so it becomes an alarm itself.
func applyIgnores(pkg *loader.Package, diags []analysis.Diagnostic) []analysis.Diagnostic {
	directives := collectIgnores(pkg)
	if len(directives) == 0 {
		return diags
	}

	covered := func(d analysis.Diagnostic) bool {
		p := pkg.Fset.Position(d.Pos)
		hit := false
		for _, dir := range directives {
			if dir.reason == "" || dir.file != p.Filename {
				continue
			}
			if dir.line == p.Line || (dir.standalone && dir.line+1 == p.Line) {
				dir.used = true
				hit = true
			}
		}
		return hit
	}
	kept := diags[:0]
	for _, d := range diags {
		if !covered(d) {
			kept = append(kept, d)
		}
	}
	for _, dir := range directives {
		switch {
		case dir.reason == "":
			kept = append(kept, analysis.Diagnostic{
				Pos:      dir.pos,
				Message:  "malformed bwvet-ignore: a suppression must state its reason (//lint:bwvet-ignore <reason>)",
				Analyzer: "bwvet-ignore",
			})
		case !dir.used:
			kept = append(kept, analysis.Diagnostic{
				Pos:      dir.pos,
				Message:  "stale bwvet-ignore: this suppresses no finding anymore; delete it (reason was: " + dir.reason + ")",
				Analyzer: "bwvet-ignore",
			})
		}
	}
	return kept
}

// onlyCommentOnLine reports whether nothing but whitespace precedes the
// comment on its source line, by inspecting the file text directly.
func onlyCommentOnLine(pos token.Position) bool {
	data, err := os.ReadFile(pos.Filename)
	if err != nil {
		return false
	}
	lines := strings.Split(string(data), "\n")
	if pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 < len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}
