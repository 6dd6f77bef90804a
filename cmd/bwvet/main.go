// Command bwvet runs the repo-invariant analyzer suite (internal/lint)
// over this module: simulation determinism, lock discipline, context
// plumbing, goroutine lifecycle, and error discipline.
//
// Usage:
//
//	go run ./cmd/bwvet ./...
//	go run ./cmd/bwvet -list
//	go run ./cmd/bwvet -fix ./...          apply suggested fixes in place
//	go run ./cmd/bwvet -fix -diff ./...    print fixes as a diff, don't write
//	go run ./cmd/bwvet -sarif out.sarif ./...
//	go run ./cmd/bwvet -ignores ./...      audit every //lint:bwvet-ignore
//
// Exit status is 0 when the tree is clean, 1 when any analyzer reports a
// finding (or, under -fix -diff, when fixes would change files), 2 on
// load or type-check failure. Suppress a deliberate violation with a
// reasoned marker on (or directly above) the line:
//
//	//lint:bwvet-ignore <reason>
//
// An ignore that stops suppressing anything becomes a finding itself, so
// suppressions cannot outlive the violation they excused.
package main

import (
	"flag"
	"fmt"
	"os"

	"bwcs/internal/lint"
	"bwcs/internal/lint/analysis"
	"bwcs/internal/lint/loader"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	diff := flag.Bool("diff", false, "with -fix: print the fixes as a diff instead of writing files (exit 1 if any)")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
	ignores := flag.Bool("ignores", false, "list every //lint:bwvet-ignore directive with its audit status and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bwvet [-list] [-fix [-diff]] [-sarif file] [-ignores] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	l, err := loader.New(cwd)
	if err != nil {
		fatal(err)
	}
	paths, err := l.Expand(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no packages match %v", patterns))
	}

	var diags []analysis.Diagnostic
	var directives []*lint.IgnoreDirective
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			fatal(err)
		}
		if *ignores {
			dirs, err := lint.Ignores(pkg, lint.Analyzers)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			directives = append(directives, dirs...)
			continue
		}
		ds, err := lint.Check(pkg, lint.Analyzers)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		diags = append(diags, ds...)
	}

	if *ignores {
		reportIgnores(l, directives)
		return
	}
	if *sarifOut != "" {
		data, err := lint.SARIF(l.Fset, l.ModuleRoot(), diags)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if *fix {
		os.Exit(applyFixes(l, diags, *diff))
	}

	findings := 0
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
		findings++
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "bwvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// applyFixes applies (or, with diffOnly, previews) every suggested fix
// and reports the findings that have none. Returns the exit code: under
// diffOnly a non-empty diff is 1 (CI check mode: fixes pending), and
// unfixable findings are 1 either way.
func applyFixes(l *loader.Loader, diags []analysis.Diagnostic, diffOnly bool) int {
	fixed, err := lint.ApplyFixes(l.Fset, diags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwvet:", err)
		return 2
	}
	code := 0
	if diffOnly {
		text, err := lint.Diff(fixed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bwvet:", err)
			return 2
		}
		if text != "" {
			fmt.Print(text)
			fmt.Fprintf(os.Stderr, "bwvet: fixes pending in %d file(s); run bwvet -fix\n", len(fixed))
			code = 1
		}
	} else {
		for name, data := range fixed {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bwvet:", err)
				return 2
			}
			fmt.Printf("bwvet: fixed %s\n", name)
		}
	}
	remaining := 0
	for _, d := range diags {
		if len(d.SuggestedFixes) > 0 {
			continue
		}
		pos := l.Fset.Position(d.Pos)
		fmt.Printf("%s: %s: %s (no automatic fix)\n", pos, d.Analyzer, d.Message)
		remaining++
	}
	if remaining > 0 {
		fmt.Fprintf(os.Stderr, "bwvet: %d finding(s) without fixes\n", remaining)
		code = 1
	}
	return code
}

// reportIgnores renders the suppression audit: every directive, its
// reason, and whether it still earns its keep.
func reportIgnores(l *loader.Loader, directives []*lint.IgnoreDirective) {
	stale := 0
	for _, dir := range directives {
		status := "used"
		switch {
		case dir.Reason == "":
			status = "MALFORMED (no reason)"
			stale++
		case !dir.Used:
			status = "STALE (suppresses nothing)"
			stale++
		}
		fmt.Printf("%s:%d: %-28s %s\n", dir.File, dir.Line, status, dir.Reason)
	}
	fmt.Fprintf(os.Stderr, "bwvet: %d ignore directive(s), %d needing attention\n", len(directives), stale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bwvet:", err)
	os.Exit(2)
}
