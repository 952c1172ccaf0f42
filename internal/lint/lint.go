// Package lint is the driver behind cmd/asrank-lint: it loads the
// requested packages, runs the analyzer suite from internal/lint/checks
// over each, applies //lint:ignore suppression, and renders findings in
// the go-vet file:line:col style.
//
// The run is sequential — expand, parse, type-check over one shared
// importer cache, analyze package by package — and every diagnostic is
// collected and sorted by (file, offset, analyzer, message) before a
// byte is written, so CI diffs and golden comparisons are stable.
//
// Exit-code contract (stable; CI depends on it):
//
//	0 — every analyzer ran, no findings
//	1 — analyzers ran to completion and reported at least one finding
//	2 — the run itself failed (bad flags, unresolvable packages,
//	    type errors)
package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/asrank-go/asrank/internal/lint/analysis"
	"github.com/asrank-go/asrank/internal/lint/checks"
	"github.com/asrank-go/asrank/internal/lint/ignore"
	"github.com/asrank-go/asrank/internal/lint/load"
)

// finding is one rendered diagnostic with its resolved position.
type finding struct {
	File     string // repo-relative, slash-separated
	Line     int
	Column   int
	Analyzer string
	Message  string
	offset   int
}

// Run executes the suite with CLI semantics and returns the exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asrank-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and their invariants, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: asrank-lint [-list] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the repo's invariant analyzers over the given package\n")
		fmt.Fprintf(stderr, "patterns (default ./...). Exit codes: 0 clean, 1 findings, 2 error.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := checks.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	ran := make(map[string]bool, len(suite))
	known := map[string]bool{ignore.DiagnosticSource: true}
	for _, a := range suite {
		ran[a.Name] = true
		known[a.Name] = true
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "asrank-lint: %v\n", err)
		return 2
	}
	loader, err := load.New(root)
	if err != nil {
		fmt.Fprintf(stderr, "asrank-lint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "asrank-lint: %v\n", err)
		return 2
	}

	var all []finding
	for _, pkg := range pkgs {
		diags, err := analyzePackage(loader, pkg, suite, ran, known)
		if err != nil {
			fmt.Fprintf(stderr, "asrank-lint: %s: %v\n", pkg.Path, err)
			return 2
		}
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			all = append(all, finding{
				File:     filepath.ToSlash(relPos(root, pos.Filename)),
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				offset:   pos.Offset,
			})
		}
	}
	sortFindings(all)

	for _, f := range all {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "asrank-lint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// sortFindings orders findings by (file, offset, analyzer, message) —
// the total order that keeps rendered output byte-stable.
func sortFindings(all []finding) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.offset != b.offset {
			return a.offset < b.offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// analyzePackage runs the suite over one package and applies the
// //lint:ignore filter.
func analyzePackage(loader *load.Loader, pkg *load.Package, suite []*analysis.Analyzer, ran, known map[string]bool) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range suite {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      loader.Fset(),
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			PkgPath:   pkg.Path,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for i := range diags {
			if diags[i].Analyzer == "" {
				diags[i].Analyzer = a.Name
			}
		}
	}
	dirs, bad := ignore.Collect(loader.Fset(), pkg.Files)
	diags = append(diags, bad...)
	return ignore.Filter(loader.Fset(), diags, dirs, ran, known), nil
}

// moduleRoot walks up from the working directory to the go.mod dir.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// relPos trims the module root prefix from a position string so
// findings print repo-relative, clickable paths.
func relPos(root, pos string) string {
	if rest, ok := strings.CutPrefix(pos, root+string(filepath.Separator)); ok {
		return rest
	}
	return pos
}
