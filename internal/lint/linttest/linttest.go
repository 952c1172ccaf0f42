// Package linttest is the suite's analysistest: it runs one analyzer
// over a golden package under testdata/src and checks the diagnostics
// against // want "regexp" comments, so every analyzer test proves both
// that seeded violations are caught and that clean idioms are not.
//
// Expectations use the analysistest comment form
//
//	bad() // want "regexp"
//
// with one double-quoted regular expression per expected diagnostic on
// that line. //lint:ignore directives in the golden files are applied
// exactly as the production driver applies them, and unused-directive
// diagnostics (analyzer name "lint") are matchable with want comments
// like any other finding.
package linttest

import (
	"go/token"
	"regexp"
	"strconv"
	"testing"

	"github.com/asrank-go/asrank/internal/lint/analysis"
	"github.com/asrank-go/asrank/internal/lint/checks"
	"github.com/asrank-go/asrank/internal/lint/ignore"
	"github.com/asrank-go/asrank/internal/lint/load"
)

// Run loads srcRoot/<pkgpath> and checks a's diagnostics (after
// //lint:ignore filtering) against the package's want comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	l := load.NewFromRoots(srcRoot)
	pkgs, err := l.Load(pkgpath)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("linttest: %d packages for %q, want 1", len(pkgs), pkgpath)
	}
	pkg := pkgs[0]

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.Fset(),
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		PkgPath:   pkg.Path,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("linttest: %s: %v", a.Name, err)
	}
	for i := range diags {
		if diags[i].Analyzer == "" {
			diags[i].Analyzer = a.Name
		}
	}
	dirs, bad := ignore.Collect(l.Fset(), pkg.Files)
	diags = append(diags, bad...)
	// known carries the full registry (plus the directive machinery's
	// own name) so goldens may reference sibling analyzers without
	// tripping the unregistered-analyzer report, while real typos do.
	known := map[string]bool{ignore.DiagnosticSource: true}
	for _, reg := range checks.All() {
		known[reg.Name] = true
	}
	diags = ignore.Filter(l.Fset(), diags, dirs, map[string]bool{a.Name: true}, known)

	check(t, l.Fset(), pkg, diags)
}

// expectation is one want pattern at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

var wantRe = regexp.MustCompile(`// want((?: "(?:[^"\\]|\\.)*")+)`)
var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// check matches diagnostics against want comments one-to-one per line.
func check(t *testing.T, fset *token.FileSet, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quoted.FindAllString(m[1], -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
