package load

import (
	"go/types"
	"path/filepath"
	"testing"
)

// moduleRoot walks up from this package to the directory with go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Clean(filepath.Join(dir, "..", "..", ".."))
}

// TestLoadWholeModule proves the source importer can resolve and
// type-check every package in the repository — including the heavy
// stdlib consumers (net in collector/chaos, net/http in apiserver) —
// with no network and no export data.
func TestLoadWholeModule(t *testing.T) {
	l, err := New(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected >= 20 packages, got %d", len(pkgs))
	}
	want := map[string]bool{
		"github.com/asrank-go/asrank":                    false,
		"github.com/asrank-go/asrank/internal/collector": false,
		"github.com/asrank-go/asrank/internal/apiserver": false,
		"github.com/asrank-go/asrank/cmd/asrankd":        false,
	}
	for _, p := range pkgs {
		if _, ok := want[p.Path]; ok {
			want[p.Path] = true
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: incomplete load", p.Path)
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", path)
		}
	}
}

// TestLoadSinglePattern checks non-recursive pattern expansion.
func TestLoadSinglePattern(t *testing.T) {
	l, err := New(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "github.com/asrank-go/asrank/internal/pool" {
		t.Fatalf("unexpected result: %+v", pkgs)
	}
	// In-package test files ride along so analyzers see them.
	foundTest := false
	for _, f := range pkgs[0].Files {
		name := l.Fset().File(f.Pos()).Name()
		if filepath.Base(name) == "pool_test.go" {
			foundTest = true
		}
	}
	if !foundTest {
		t.Error("pool_test.go not included in load")
	}
}

// TestLoadGenerics proves the offline importer type-checks
// type-parameterized code: union constraints, generic methods, and
// inferred/explicit/nested instantiations all land with full Info.
func TestLoadGenerics(t *testing.T) {
	l := NewFromRoots("testdata/src")
	pkgs, err := l.Load("generics")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package, got %d", len(pkgs))
	}
	pkg := pkgs[0]
	scope := pkg.Types.Scope()
	for _, name := range []string{"Sum", "Pair", "Keys", "SumInt", "NestedMap"} {
		if scope.Lookup(name) == nil {
			t.Errorf("generics.%s not in package scope", name)
		}
	}
	// The inferred instantiation must have a concrete, non-generic type.
	if got := scope.Lookup("SumInt").Type().String(); got != "int" {
		t.Errorf("SumInt type = %s, want int", got)
	}
	if pkg.Info == nil || len(pkg.Info.Defs) == 0 {
		t.Error("generics load carried no type info")
	}
}

// TestLoadBuildTags proves tag-based file selection under the loader's
// CgoEnabled=false context: the //go:build cgo twin declares a
// conflicting Impl, so a clean load with Impl == "pure" is proof the
// tagged file was excluded rather than merely tolerated.
func TestLoadBuildTags(t *testing.T) {
	l := NewFromRoots("testdata/src")
	pkgs, err := l.Load("buildtags")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package, got %d", len(pkgs))
	}
	pkg := pkgs[0]
	for _, f := range pkg.Files {
		if filepath.Base(l.Fset().File(f.Pos()).Name()) == "cgoimpl.go" {
			t.Error("cgo-tagged file selected despite CgoEnabled=false")
		}
	}
	impl := pkg.Types.Scope().Lookup("Impl")
	if impl == nil {
		t.Fatal("buildtags.Impl not loaded")
	}
	c, ok := impl.(*types.Const)
	if !ok || c.Val().String() != `"pure"` {
		t.Errorf("Impl = %v, want the pure-Go declaration", impl)
	}
}
