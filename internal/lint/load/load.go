// Package load parses and type-checks packages for the lint suite
// without golang.org/x/tools: a recursive source importer resolves the
// standard library from GOROOT/src (and its vendor tree), and module
// packages from the repository itself. Dependencies are checked with
// IgnoreFuncBodies so a whole-repo run stays fast; packages under
// analysis are checked fully, with in-package _test.go files included,
// and carry complete go/types information.
package load

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one fully checked unit of analysis.
type Package struct {
	Path  string // import path, e.g. github.com/asrank-go/asrank/internal/cone
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and caches packages over one shared FileSet.
type Loader struct {
	// ModulePath/ModuleDir describe the enclosing module; imports
	// under ModulePath resolve into ModuleDir. Optional when only
	// SrcRoots are used (the linttest mode).
	ModulePath string
	ModuleDir  string

	// SrcRoots are GOPATH-src-like roots consulted for import paths
	// not claimed by the module, before the standard library. Used by
	// linttest to resolve testdata/src sibling packages.
	SrcRoots []string

	fset  *token.FileSet
	ctx   build.Context
	cache map[string]*entry
}

type entry struct {
	pkg      *Package // nil for dependency-only loads
	tpkg     *types.Package
	err      error
	checking bool
}

// New returns a loader rooted at the given module. dir must contain
// go.mod; the module path is read from it.
func New(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("load: no module line in %s/go.mod", dir)
	}
	l := &Loader{ModulePath: mod, ModuleDir: dir}
	l.init()
	return l, nil
}

// NewFromRoots returns a loader for standalone source roots (linttest).
func NewFromRoots(roots ...string) *Loader {
	l := &Loader{SrcRoots: roots}
	l.init()
	return l
}

func (l *Loader) init() {
	l.fset = token.NewFileSet()
	l.ctx = build.Default
	// Pure-Go file selection: cgo variants of net/os/user etc. are
	// excluded, matching how the repo builds in CI containers.
	l.ctx.CgoEnabled = false
	l.cache = make(map[string]*entry)
}

// Fset returns the shared FileSet positions refer to.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load resolves patterns ("./...", "./internal/cone", or bare import
// paths under a SrcRoot) and returns each matched package fully
// type-checked. Results are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand turns CLI patterns into import paths.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if l.ModuleDir == "" {
				return nil, fmt.Errorf("load: pattern %q needs a module root", pat)
			}
			paths, err := l.walkModule("")
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			rel := strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/...")
			paths, err := l.walkModule(rel)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			rel := strings.TrimPrefix(pat, "./")
			if rel == "." {
				rel = ""
			}
			add(joinModule(l.ModulePath, rel))
		default:
			add(pat)
		}
	}
	return out, nil
}

// walkModule lists every buildable package dir under rel.
func (l *Loader) walkModule(rel string) ([]string, error) {
	root := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.ctx.ImportDir(p, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil // directory without Go files; keep walking
			}
			return fmt.Errorf("load: %s: %w", p, err)
		}
		sub, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		out = append(out, joinModule(l.ModulePath, filepath.ToSlash(sub)))
		return nil
	})
	return out, err
}

// dirFor maps an import path to its source directory, or "" when the
// path is unresolvable.
func (l *Loader) dirFor(importPath string) string {
	if l.ModulePath != "" {
		if importPath == l.ModulePath {
			return l.ModuleDir
		}
		if rest, ok := strings.CutPrefix(importPath, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
		}
	}
	for _, root := range l.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(importPath))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	goroot := l.ctx.GOROOT
	if goroot == "" {
		goroot = runtime.GOROOT()
	}
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(importPath)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(importPath)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// inModule reports whether the import path belongs to the module or a
// SrcRoot — the trees whose packages are analysis subjects.
func (l *Loader) inModule(importPath string) bool {
	if l.ModulePath != "" &&
		(importPath == l.ModulePath || strings.HasPrefix(importPath, l.ModulePath+"/")) {
		return true
	}
	for _, root := range l.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(importPath))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return true
		}
	}
	return false
}

// load fully checks importPath as an analysis subject.
func (l *Loader) load(importPath string) (*Package, error) {
	if e, ok := l.cache[importPath]; ok {
		if e.err != nil {
			return nil, e.err
		}
		if e.pkg != nil {
			return e.pkg, nil
		}
		// Previously loaded as a dependency; fall through and
		// re-check with full syntax + Info below.
	}
	pkg, err := l.check(importPath, true)
	if err != nil {
		l.cache[importPath] = &entry{err: err}
		return nil, err
	}
	l.cache[importPath] = &entry{pkg: pkg, tpkg: pkg.Types}
	return pkg, nil
}

// Import implements types.Importer for dependency resolution.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if e, ok := l.cache[importPath]; ok {
		if e.checking {
			return nil, fmt.Errorf("import cycle through %q", importPath)
		}
		if e.err != nil {
			return nil, e.err
		}
		return e.tpkg, nil
	}
	e := &entry{checking: true}
	l.cache[importPath] = e
	pkg, err := l.check(importPath, false)
	e.checking = false
	if err != nil {
		e.err = err
		return nil, err
	}
	e.tpkg = pkg.Types
	if l.inModule(importPath) {
		// Module dependencies are checked exactly like subjects, so
		// cache the full result for a later Load of the same path.
		e.pkg = pkg
	}
	return e.tpkg, nil
}

// check parses and type-checks one package. Subjects (and module
// packages generally) are checked with function bodies, in-package
// test files, comments, and full type info; pure dependencies
// (standard library) skip bodies and comments for speed.
func (l *Loader) check(importPath string, subject bool) (*Package, error) {
	full := subject || l.inModule(importPath)

	dir := l.dirFor(importPath)
	if dir == "" {
		return nil, fmt.Errorf("load: cannot resolve import %q", importPath)
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", importPath, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	if full {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)

	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var softErrs []error
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: !full,
		Sizes:            types.SizesFor("gc", l.ctx.GOARCH),
		Error: func(err error) {
			softErrs = append(softErrs, err)
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(softErrs) > 0 && full {
		return nil, fmt.Errorf("load: type errors in %s: %w", importPath, errors.Join(softErrs...))
	}
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("load: %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// joinModule joins a module path and a slash-separated relative dir.
func joinModule(mod, rel string) string {
	if rel == "" || rel == "." {
		return mod
	}
	return mod + "/" + rel
}
