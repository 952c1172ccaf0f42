package checks

import (
	"go/ast"
	"go/types"

	"github.com/asrank-go/asrank/internal/lint/analysis"
	"github.com/asrank-go/asrank/internal/lint/annotate"
)

// HotPathAlloc keeps the zero-allocation serving path actually
// zero-allocation at the construct level, not just at the
// AllocsPerRun-measured level: functions marked //asrank:hotpath (the
// point-lookup handlers, the ETag comparator, the cone membership probe,
// the streaming credit walk) are scanned for constructs that force the
// compiler to allocate, each with a fix hint:
//
//   - fmt.* calls — every verb boxes its operand and the result
//     escapes; build responses with strconv.Append* into a pooled
//     buffer instead;
//   - string ⇄ []byte/[]rune conversions — a full copy per call; keep
//     one representation end to end;
//   - string concatenation (+ / +=) — allocates the joined string;
//     append into a reusable buffer;
//   - interface boxing — passing a non-pointer concrete value where an
//     interface is expected heap-allocates the box; pointers, maps,
//     channels, and funcs are word-sized and exempt;
//   - escaping closures — a func literal that is not invoked
//     immediately captures its environment on the heap; hoist it to a
//     named function or method;
//   - unhinted append growth — appending to a slice declared empty in
//     the same function grows geometrically; preallocate with a
//     capacity or reuse a pooled buffer;
//   - map iteration — hidden per-range overhead and randomized order
//     on the one path where both matter; precompute a sorted slice at
//     Build time.
//
// The analyzer also cross-checks the marked set against the test
// suite's allocation pins: a function exercised directly inside a
// testing.AllocsPerRun closure must carry //asrank:hotpath, so the
// analyzer and the tests always name the same function set. Findings
// are suppressed per line with //lint:ignore hotpathalloc <reason>.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "flags allocation-forcing constructs inside //asrank:hotpath " +
		"functions and cross-checks the marked set against AllocsPerRun pins",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	hot := annotate.Hotpaths(pass.TypesInfo, pass.Files)
	for fn, decl := range hot {
		if pass.InTestFile(decl.Pos()) {
			continue
		}
		checkHotFunc(pass, fn, decl)
	}
	checkAllocsPerRunPins(pass, hot)
	return nil
}

// checkHotFunc scans one marked function body for allocation-forcing
// constructs.
func checkHotFunc(pass *analysis.Pass, fn *types.Func, decl *ast.FuncDecl) {
	info := pass.TypesInfo
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if immediatelyInvoked(decl.Body, n) {
				return true // body still scanned; the literal itself is free
			}
			pass.Reportf(n.Pos(),
				"closure escapes to the heap in hot path %s: hoist it to a named function or a method value",
				fn.Name())
			return false // constructs inside run under the closure's own profile

		case *ast.CallExpr:
			checkHotCall(pass, fn, decl, n)

		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(info.Types[n.X].Type) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates in hot path %s: append into a reusable []byte buffer",
					fn.Name())
			}

		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isStringType(info.Types[n.Lhs[0]].Type) {
				pass.Reportf(n.Pos(),
					"string += allocates in hot path %s: append into a reusable []byte buffer", fn.Name())
			}

		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"map iteration in hot path %s: per-range overhead plus randomized order on the "+
							"serving path; precompute a sorted slice at Build time", fn.Name())
				}
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
}

// checkHotCall classifies one call inside a hot function: fmt use,
// allocating conversions, unhinted append growth, and interface-boxing
// arguments.
func checkHotCall(pass *analysis.Pass, fn *types.Func, decl *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Conversion? string([]byte) and friends parse as CallExpr.
	if len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			if allocatingConversion(tv.Type, info.Types[call.Args[0]].Type) {
				pass.Reportf(call.Pos(),
					"string/[]byte conversion copies in hot path %s: keep one representation, or stage "+
						"bytes in a pooled buffer", fn.Name())
			}
			return
		}
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if target, bad := unhintedAppendTarget(pass, decl, call); bad {
			pass.Reportf(call.Pos(),
				"append grows unhinted slice %s in hot path %s: preallocate with make(len, cap) or "+
					"reuse a pooled buffer", target, fn.Name())
		}
		return
	}

	callee := calleeFunc(info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s in hot path %s boxes its arguments and allocates its result: use strconv.Append* "+
				"into a pooled buffer", callee.Name(), fn.Name())
		return
	}

	checkBoxingArgs(pass, fn, call)
}

// allocatingConversion reports whether a conversion from `from` to
// `to` copies backing storage: string ⇄ []byte/[]rune either way.
func allocatingConversion(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// unhintedAppendTarget reports whether the append target is a slice
// declared empty (var s []T, s := []T{}) inside the marked function —
// the pattern that guarantees geometric reallocation. Slices derived
// from parameters, pooled buffers, or sized make calls stay silent.
func unhintedAppendTarget(pass *analysis.Pass, decl *ast.FuncDecl, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pos() < decl.Pos() || obj.Pos() > decl.End() {
		return "", false // parameter or outer declaration: cannot judge
	}
	empty := false
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec: // var s []T
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] != obj {
					continue
				}
				if len(n.Values) == 0 {
					empty = true
				} else if isEmptySliceExpr(n.Values[i]) {
					empty = true
				}
			}
		case *ast.AssignStmt: // s := []T{}
			for i, lhs := range n.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.Defs[lid] != obj || i >= len(n.Rhs) {
					continue
				}
				if isEmptySliceExpr(n.Rhs[i]) {
					empty = true
				}
			}
		}
		return true
	})
	return id.Name, empty
}

// isEmptySliceExpr matches []T{} / []T(nil) / nil initializers.
func isEmptySliceExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		_, isSlice := e.Type.(*ast.ArrayType)
		return isSlice && len(e.Elts) == 0
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CallExpr: // []T(nil)
		if len(e.Args) == 1 {
			if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// checkBoxingArgs flags arguments that convert a heap-boxing concrete
// value to an interface parameter.
func checkBoxingArgs(pass *analysis.Pass, fn *types.Func, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // builtin or conversion
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... forwards the slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil || !boxes(at) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"passing %s as %s boxes it onto the heap in hot path %s: take a concrete parameter or "+
				"pre-box at Build time", at.String(), pt.String(), fn.Name())
	}
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: anything wider than one pointer word (strings,
// slices, structs, scalars — scalars are boxed too, small-int cache
// aside). Pointer-shaped kinds and existing interfaces are free.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	default:
		return true
	}
}

// immediatelyInvoked reports whether lit is the callee of a CallExpr
// (func(){...}() — runs inline, never escapes).
func immediatelyInvoked(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && ast.Unparen(call.Fun) == lit {
			invoked = true
		}
		return !invoked
	})
	return invoked
}

// checkAllocsPerRunPins cross-checks the annotation set against the
// test suite: every same-package function called directly inside a
// testing.AllocsPerRun closure must be marked //asrank:hotpath.
func checkAllocsPerRunPins(pass *analysis.Pass, hot map[*types.Func]*ast.FuncDecl) {
	for _, f := range pass.Files {
		if !pass.InTestFile(f.Package) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "AllocsPerRun" || fn.Pkg() == nil || fn.Pkg().Path() != "testing" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				inner, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.TypesInfo, inner)
				if callee == nil || callee.Pkg() != pass.Pkg {
					return true
				}
				if _, marked := hot[callee]; !marked {
					pass.Reportf(inner.Pos(),
						"%s is pinned by testing.AllocsPerRun here but is not marked //asrank:hotpath: "+
							"annotate it so the analyzer and the allocation tests name the same function set",
						callee.Name())
				}
				return true
			})
			return true
		})
	}
}
