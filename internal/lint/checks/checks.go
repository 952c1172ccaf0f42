// Package checks holds the analyzers encoding the repository's
// load-bearing invariants:
//
//   - noderivedgo: all fan-out goes through the bounded internal/pool.
//   - nodeterminismleak: inference, cones, chaos schedules, and path
//     sanitization stay seed-deterministic.
//   - obsnames: metric names are statically valid Prometheus names in
//     the asrank house style.
//   - errwrap: error chains survive fmt.Errorf, and loop errors carry
//     iteration context.
//   - nolockcopy-atomics: counters use typed atomics, not the legacy
//     function-call API over plain integers.
//   - immutablepub: publish-frozen snapshot types are never written
//     through after flowing into a publish sink.
//   - hotpathalloc: //asrank:hotpath functions contain no
//     allocation-forcing constructs, and the set matches the
//     AllocsPerRun pins in the test suite.
//   - lockdiscipline: //asrank:guardedby fields are only touched with
//     the named mutex held, and no publish sink runs under a lock.
//   - asrankannotations: the //asrank: directive grammar itself —
//     malformed or orphaned annotations are findings, because a typo
//     silently disables the invariant the annotation carries.
//
// The one escape is the //lint:ignore suppression mechanism (see
// internal/lint/ignore), applied by the driver, never by the analyzers
// themselves.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/asrank-go/asrank/internal/lint/analysis"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoDerivedGo,
		NoDeterminismLeak,
		ObsNames,
		ErrWrap,
		NoLockCopyAtomics,
		ImmutablePub,
		HotPathAlloc,
		LockDiscipline,
		AsrankAnnotations,
	}
}

// calleeFunc resolves the called function or method of call, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function
// pkgPath.name (never a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// pkgPathMatches reports whether got is exactly want or ends with
// "/"+want, so production paths (github.com/…/internal/core) and
// golden testdata paths (internal/core) match the same rule.
func pkgPathMatches(got, want string) bool {
	return got == want || strings.HasSuffix(got, "/"+want)
}

// enclosingFuncBody returns the body of the innermost enclosing
// function declaration (not literal) containing pos, or nil.
func enclosingFuncBody(f *ast.File, pos ast.Node) *ast.BlockStmt {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos.Pos() && pos.Pos() < fd.Body.End() {
			return fd.Body
		}
	}
	return nil
}
