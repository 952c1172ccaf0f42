package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/asrank-go/asrank/internal/lint/analysis"
)

// ImmutablePub enforces the publish-freeze contract behind the serving
// stack's lock-free reads: a snapshot that has been published — swapped
// into the live handler, appended to the epoch warehouse, or handed to
// the API snapshot builder — is read concurrently by every request
// goroutine without synchronization, so a single write through it after
// publication is a data race the type system cannot see. The analyzer
// registers the publish-frozen types (warehouse.Snapshot, cone.BitSets,
// cone.Relations, apiserver.Data) and applies two rules:
//
//  1. Outside the type's own package, a write through a frozen value's
//     fields is always flagged — construction happens in-package, so a
//     foreign write is by definition post-construction.
//  2. Inside the type's own package, an intraprocedural value-flow walk
//     tracks each frozen value from the point it flows into a publish
//     sink (Live.Swap, Store.Append, warehouse.Compose's return,
//     apiserver.BuildSnapshot); writes through the value — or any
//     alias taken after publication — at a later position are flagged.
//
// The escape hatch is the suite's one suppression,
// //lint:ignore immutablepub <reason>, on the write line. Test files
// are exempt (the race detector owns them).
var ImmutablePub = &analysis.Analyzer{
	Name: "immutablepub",
	Doc: "flags writes through publish-frozen snapshot types after they flow " +
		"into a publish sink (Live.Swap, Store.Append, BuildSnapshot)",
	Run: runImmutablePub,
}

// frozenTypes registers the publish-frozen types as (package-path
// suffix, type name). Production paths and golden testdata paths match
// the same entries through pkgPathMatches.
var frozenTypes = []struct{ pkg, name string }{
	{"internal/warehouse", "Snapshot"},
	{"internal/cone", "BitSets"},
	{"internal/cone", "Relations"},
	{"internal/apiserver", "Data"},
}

// publishSinks are the calls after which an argument of frozen type is
// considered published: (package-path suffix, receiver type or "", name).
var publishSinks = []struct{ pkg, recv, name string }{
	{"internal/apiserver", "Live", "Swap"},
	{"internal/warehouse", "Store", "Append"},
	{"internal/apiserver", "", "BuildSnapshot"},
	{"internal/warehouse", "", "Compose"},
}

// frozenNamed resolves t (through pointers) to a registered frozen
// named type, or nil.
func frozenNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	for _, ft := range frozenTypes {
		if named.Obj().Name() == ft.name && pkgPathMatches(named.Obj().Pkg().Path(), ft.pkg) {
			return named
		}
	}
	return nil
}

// isPublishSink reports whether the called function is a registered
// publish sink.
func isPublishSink(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for _, s := range publishSinks {
		if fn.Name() != s.name || !pkgPathMatches(fn.Pkg().Path(), s.pkg) {
			continue
		}
		if s.recv == "" {
			if sig.Recv() == nil {
				return true
			}
			continue
		}
		recv := sig.Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type()
		if p, ok := rt.Underlying().(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Name() == s.recv {
			return true
		}
	}
	return false
}

func runImmutablePub(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncImmutable(pass, fd)
		}
	}
	return nil
}

// checkFuncImmutable applies both rules to one function body.
func checkFuncImmutable(pass *analysis.Pass, fd *ast.FuncDecl) {
	// published maps a frozen value's object to the position at which
	// it flowed into a publish sink.
	published := make(map[types.Object]token.Pos)

	// Pass 1, in source order: record sink flows and alias copies.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, n)
			if !isPublishSink(fn) {
				return true
			}
			for _, arg := range n.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || frozenNamed(obj.Type()) == nil {
					continue
				}
				if _, done := published[obj]; !done {
					published[obj] = n.Pos()
				}
			}
		case *ast.AssignStmt:
			// Alias propagation: y := x (or y = x) after x published
			// publishes y from the assignment on.
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Rhs {
				src, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				srcObj := pass.TypesInfo.Uses[src]
				pubPos, isPub := published[srcObj]
				if !isPub || n.Pos() < pubPos {
					continue
				}
				dst, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				dstObj := pass.TypesInfo.Defs[dst]
				if dstObj == nil {
					dstObj = pass.TypesInfo.Uses[dst]
				}
				if dstObj != nil {
					if _, done := published[dstObj]; !done {
						published[dstObj] = n.Pos()
					}
				}
			}
		}
		return true
	})

	// Pass 2: flag writes. A write through a frozen value is flagged
	// when the root is published at an earlier position (rule 2) or
	// when the frozen type is foreign to this package (rule 1).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkFrozenWrite(pass, lhs, n.Pos(), published)
			}
		case *ast.IncDecStmt:
			checkFrozenWrite(pass, n.X, n.Pos(), published)
		case *ast.CallExpr:
			// delete(v.Field, k) and clear(v.Field) mutate through the
			// selector exactly like an assignment.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
				checkFrozenWrite(pass, n.Args[0], n.Pos(), published)
			}
		}
		return true
	})
}

// checkFrozenWrite reports expr when it writes through a field of a
// frozen type. expr is an assignment LHS (possibly an index or star
// chain over a selector).
func checkFrozenWrite(pass *analysis.Pass, expr ast.Expr, at token.Pos, published map[types.Object]token.Pos) {
	sel := rootSelector(expr)
	if sel == nil {
		return
	}
	base := pass.TypesInfo.Types[sel.X].Type
	named := frozenNamed(base)
	if named == nil {
		return
	}
	// Is the selected name actually a field of the frozen type (not a
	// method value or a further projection)?
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}

	foreign := !pkgPathMatches(pass.PkgPath, named.Obj().Pkg().Path())
	pubPos, isPublished := token.NoPos, false
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		pubPos, isPublished = published[pass.TypesInfo.Uses[id]]
	}
	switch {
	case foreign:
		pass.Reportf(at,
			"write to %s.%s outside package %s: %s is publish-frozen; construct a new value instead, "+
				"or excuse the write with //lint:ignore immutablepub <reason>",
			named.Obj().Name(), sel.Sel.Name, named.Obj().Pkg().Name(), named.Obj().Name())
	case isPublished && at > pubPos:
		pass.Reportf(at,
			"write to %s.%s after the value flowed into a publish sink at %s: published snapshots are "+
				"read lock-free and must never be mutated (//lint:ignore immutablepub <reason> to excuse)",
			named.Obj().Name(), sel.Sel.Name, pass.Fset.Position(pubPos))
	}
}

// rootSelector peels index/star/paren layers off an assignment target
// and returns the underlying field selector, or nil.
func rootSelector(expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return e
		default:
			return nil
		}
	}
}
