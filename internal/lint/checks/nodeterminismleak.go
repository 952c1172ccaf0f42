package checks

import (
	"go/ast"
	"go/types"

	"github.com/asrank-go/asrank/internal/lint/analysis"
)

// NoDeterminismLeak guards the seed-determinism contract of the
// inference and chaos paths: chaos.Schedule() must equal the journal a
// proxied run writes, and Infer must be byte-identical at any worker
// count. Inside the deterministic packages (internal/core,
// internal/cone, internal/chaos, internal/paths, internal/stream,
// internal/warehouse — the last because the epoch store's
// encode/decode must be byte-identical for the round-trip ETag proof)
// the analyzer flags:
//
//   - every time.Now / time.Since call — wall-clock reads feeding
//     logic would make schedules depend on host speed, and timing a
//     unit of work needs none: trace.StartPhase owns the clock read
//     and hands the elapsed time to histograms, spans and report
//     fields without the package ever holding a time.Time;
//   - package-level math/rand and math/rand/v2 functions, which draw
//     from the shared global source; randomness must come from an
//     explicitly seeded *rand.Rand (rand.New(rand.NewSource(seed)));
//   - appends to an outer slice while ranging over a map, unless the
//     slice is sorted afterwards in the same function — map iteration
//     order would otherwise leak into output ordering.
//
// Test files are exempt: tests measure wall time and build scratch
// state freely.
var NoDeterminismLeak = &analysis.Analyzer{
	Name: "nodeterminismleak",
	Doc: "flags every time.Now/time.Since call (time work with trace.StartPhase), " +
		"global math/rand use, and map-ordered slice writes in the deterministic packages",
	Run: runNoDeterminismLeak,
}

// DeterministicPackages lists the package paths (matched exactly or as
// a "/"-suffix) the analyzer applies to.
var DeterministicPackages = []string{
	"internal/core",
	"internal/cone",
	"internal/chaos",
	"internal/paths",
	"internal/stream",
	"internal/warehouse",
}

// seededConstructors are the math/rand functions that build an
// explicitly seeded generator rather than drawing from the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoDeterminismLeak(pass *analysis.Pass) error {
	applies := false
	for _, p := range DeterministicPackages {
		if pkgPathMatches(pass.PkgPath, p) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		checkClockReads(pass, f)
		checkGlobalRand(pass, f)
		checkMapOrderedWrites(pass, f)
	}
	return nil
}

// --- wall-clock reads -------------------------------------------------

func checkClockReads(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.TypesInfo, call); isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since") {
			pass.Reportf(call.Pos(),
				"time.%s in a deterministic package: wall clock must not be in reach of inference or "+
					"fault schedules; time a unit of work with trace.StartPhase", fn.Name())
		}
		return true
	})
}

// --- global math/rand -------------------------------------------------

func checkGlobalRand(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods on an explicitly seeded *rand.Rand
		}
		if seededConstructors[fn.Name()] {
			return true
		}
		pass.Reportf(call.Pos(),
			"global %s.%s draws from the shared unseeded source; deterministic code must use an "+
				"explicitly seeded generator (rand.New(rand.NewSource(seed)))",
			fn.Pkg().Name(), fn.Name())
		return true
	})
}

// --- map-iteration-ordered writes ------------------------------------

func checkMapOrderedWrites(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			assign, ok := m.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || len(call.Args) == 0 {
				return true
			}
			target := types.ExprString(assign.Lhs[0])
			if types.ExprString(call.Args[0]) != target {
				return true
			}
			if declaredWithin(pass.TypesInfo, assign.Lhs[0], rng) {
				return true // per-iteration scratch slice
			}
			if sortedInEnclosingFunc(f, rng, target) {
				return true
			}
			pass.Reportf(assign.Pos(),
				"append to %s while ranging over a map leaks iteration order into the output; "+
					"sort %s afterwards or iterate sorted keys", target, target)
			return true
		})
		return true
	})
}

// declaredWithin reports whether the root identifier of expr is
// declared inside the range statement (a per-iteration slice).
func declaredWithin(info *types.Info, expr ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && rng.Pos() <= obj.Pos() && obj.Pos() < rng.End()
}

// sortNames are the sort/slices calls that launder map-iteration order
// out of a slice.
var sortNames = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedInEnclosingFunc reports whether the enclosing function sorts
// the named slice expression anywhere.
func sortedInEnclosingFunc(f *ast.File, at ast.Node, target string) bool {
	scope := enclosingFuncBody(f, at)
	if scope == nil {
		return false
	}
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		fns, ok := sortNames[pkg.Name]
		if !ok || !fns[sel.Sel.Name] {
			return true
		}
		if types.ExprString(call.Args[0]) == target {
			found = true
		}
		return !found
	})
	return found
}
