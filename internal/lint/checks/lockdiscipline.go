package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/asrank-go/asrank/internal/lint/analysis"
	"github.com/asrank-go/asrank/internal/lint/annotate"
)

// LockDiscipline enforces //asrank:guardedby field annotations: a
// struct field annotated `//asrank:guardedby mu` may only be read or
// written while the named sibling mutex is held, on every
// intraprocedural path. The checker walks each function as a
// branch-sensitive abstract interpretation of lock state:
//
//   - x.mu.Lock()/RLock() acquire, x.mu.Unlock()/RUnlock() release;
//     `defer x.mu.Unlock()` releases at return and leaves the state
//     held for the rest of the body.
//   - if/switch/select branches fork the state; branches that
//     terminate (return, panic, break/continue) do not rejoin, so the
//     lock/inspect/unlock-and-return idiom checks cleanly. Surviving
//     branches merge conservatively (held only if held on all).
//   - Writes require the exclusive lock: a write under RLock is its
//     own finding.
//
// Three escapes keep the rule honest instead of noisy: functions whose
// name ends in "Locked" document that the caller holds the lock (the
// repo's existing convention: keepLocked, totalBytesLocked, …) and are
// skipped; values constructed locally (composite literal or new) are
// unpublished and exempt until they escape; and test files are the
// race detector's jurisdiction.
//
// The second rule is publish hygiene: while any annotated mutex is
// held, calling a publish sink that performs I/O or a live swap
// (Live.Swap, Store.Append) is flagged — publishing under a lock
// stalls every reader behind disk or handler-build latency.
// In-memory constructors (warehouse.Compose, apiserver.BuildSnapshot)
// are deliberately not in this set.
var LockDiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "enforces //asrank:guardedby annotations: guarded fields only " +
		"under the named mutex, writes never under RLock, no publish sink under a held lock",
	Run: runLockDiscipline,
}

// underLockSinks are the publish sinks that must not run under any
// annotated mutex: (pkg suffix, receiver type, method).
var underLockSinks = []struct{ pkg, recv, name string }{
	{"internal/apiserver", "Live", "Swap"},
	{"internal/warehouse", "Store", "Append"},
}

type lockLevel int

const (
	unlocked lockLevel = iota
	readHeld
	writeHeld
)

// lockKey identifies one mutex instance intraprocedurally: the root
// object (receiver, parameter, or variable) plus the mutex field name.
type lockKey struct {
	root  types.Object
	mutex string
}

type lockState map[lockKey]lockLevel

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// merge keeps the weaker of the two levels per key — the conservative
// join for code reachable from both branches.
func merge(a, b lockState) lockState {
	out := make(lockState)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if vb < va {
				out[k] = vb
			} else {
				out[k] = va
			}
		}
	}
	return out
}

func (s lockState) anyHeld() (lockKey, bool) {
	for k, v := range s {
		if v > unlocked {
			return k, true
		}
	}
	return lockKey{}, false
}

type lockChecker struct {
	pass    *analysis.Pass
	guarded map[*types.Var]annotate.Guard
	rwMutex map[string]map[types.Object]bool // mutex name → roots where it is an RWMutex
	fresh   map[types.Object]bool            // locally constructed, unpublished values
}

func runLockDiscipline(pass *analysis.Pass) error {
	guarded := annotate.Guarded(pass.TypesInfo, pass.Files)
	if len(guarded) == 0 {
		return nil
	}
	lc := &lockChecker{pass: pass, guarded: guarded}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // convention: the caller holds the lock
			}
			lc.fresh = make(map[types.Object]bool)
			lc.walkStmts(fd.Body.List, make(lockState))
		}
	}
	return nil
}

// walkStmts interprets a statement list, threading lock state through
// and reporting unguarded accesses. It returns the state at fall-off
// and whether the list always terminates (return/panic/branch).
func (lc *lockChecker) walkStmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = lc.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (lc *lockChecker) walkStmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return lc.walkStmts(s.List, st)

	case *ast.ExprStmt:
		if key, op, ok := lc.lockOp(s.X); ok {
			return applyLockOp(st, key, op), false
		}
		if isPanicCall(s.X) {
			lc.checkExpr(s.X, st)
			return st, true
		}
		lc.checkExpr(s.X, st)
		return st, false

	case *ast.DeferStmt:
		// defer x.mu.Unlock() releases at return; the body below keeps
		// running under the lock, so no state change. Other deferred
		// calls have their arguments evaluated now.
		if _, _, ok := lc.lockOp(s.Call); ok {
			return st, false
		}
		for _, a := range s.Call.Args {
			lc.checkExpr(a, st)
		}
		return st, false

	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			lc.checkExpr(a, st)
		}
		return st, false

	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			lc.checkExpr(r, st)
		}
		lc.markFresh(s)
		for _, l := range s.Lhs {
			lc.checkWrite(l, st)
		}
		return st, false

	case *ast.IncDecStmt:
		lc.checkWrite(s.X, st)
		return st, false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lc.checkExpr(v, st)
					}
				}
			}
		}
		return st, false

	case *ast.SendStmt:
		lc.checkExpr(s.Chan, st)
		lc.checkExpr(s.Value, st)
		return st, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lc.checkExpr(r, st)
		}
		return st, true

	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; conservative:
		// treat as terminating so their state never pollutes the join.
		return st, true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = lc.walkStmt(s.Init, st)
		}
		lc.checkExpr(s.Cond, st)
		thenSt, thenTerm := lc.walkStmts(s.Body.List, st.clone())
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = lc.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return merge(thenSt, elseSt), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = lc.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			lc.checkExpr(s.Cond, st)
		}
		bodySt, _ := lc.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			lc.walkStmt(s.Post, bodySt)
		}
		return merge(st, bodySt), false

	case *ast.RangeStmt:
		lc.checkExpr(s.X, st)
		bodySt, _ := lc.walkStmts(s.Body.List, st.clone())
		return merge(st, bodySt), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = lc.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			lc.checkExpr(s.Tag, st)
		}
		return lc.walkCases(s.Body, st)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = lc.walkStmt(s.Init, st)
		}
		lc.walkStmt(s.Assign, st)
		return lc.walkCases(s.Body, st)

	case *ast.SelectStmt:
		return lc.walkCases(s.Body, st)

	case *ast.LabeledStmt:
		return lc.walkStmt(s.Stmt, st)

	default:
		return st, false
	}
}

// walkCases interprets switch/select clause bodies: each runs from the
// entry state; surviving clauses merge with the entry state itself
// (a switch may match nothing).
func (lc *lockChecker) walkCases(body *ast.BlockStmt, st lockState) (lockState, bool) {
	out := st
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				lc.checkExpr(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				lc.walkStmt(c.Comm, st.clone())
			}
			stmts = c.Body
		}
		caseSt, term := lc.walkStmts(stmts, st.clone())
		if !term {
			out = merge(out, caseSt)
		}
	}
	return out, false
}

// lockOp recognizes x.<mutex>.Lock/RLock/Unlock/RUnlock where <mutex>
// is named by a guardedby annotation on x's type.
func (lc *lockChecker) lockOp(e ast.Expr) (lockKey, string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return lockKey{}, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	root, ok := ast.Unparen(muSel.X).(*ast.Ident)
	if !ok {
		return lockKey{}, "", false
	}
	rootObj := lc.pass.TypesInfo.Uses[root]
	if rootObj == nil {
		return lockKey{}, "", false
	}
	// Only mutexes actually named by an annotation matter.
	if !lc.isAnnotatedMutex(rootObj.Type(), muSel.Sel.Name) {
		return lockKey{}, "", false
	}
	return lockKey{root: rootObj, mutex: muSel.Sel.Name}, op, true
}

// isAnnotatedMutex reports whether any guarded field of rootType names
// mutex as its guard.
func (lc *lockChecker) isAnnotatedMutex(rootType types.Type, mutex string) bool {
	st := structOf(rootType)
	if st == nil {
		return false
	}
	for field, g := range lc.guarded {
		if g.Mutex != mutex {
			continue
		}
		if fieldOfStruct(st, field) {
			return true
		}
	}
	return false
}

func applyLockOp(st lockState, key lockKey, op string) lockState {
	out := st.clone()
	switch op {
	case "Lock":
		out[key] = writeHeld
	case "RLock":
		out[key] = readHeld
	case "Unlock", "RUnlock":
		out[key] = unlocked
	}
	return out
}

// markFresh records locals initialized from a composite literal or new
// — values not yet shared, whose fields may be touched lock-free.
func (lc *lockChecker) markFresh(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := lc.pass.TypesInfo.Defs[id]
		if obj == nil {
			continue
		}
		rhs := ast.Unparen(s.Rhs[i])
		if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			rhs = ast.Unparen(ue.X)
		}
		switch r := rhs.(type) {
		case *ast.CompositeLit:
			lc.fresh[obj] = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "new" {
				lc.fresh[obj] = true
			}
		}
	}
}

// checkWrite validates an assignment target, then its subexpressions.
func (lc *lockChecker) checkWrite(e ast.Expr, st lockState) {
	if sel := rootSelector(e); sel != nil {
		lc.checkAccess(sel, st, true)
		lc.checkExpr(sel.X, st)
		return
	}
	lc.checkExpr(e, st)
}

// checkExpr validates every guarded read and sink call in an
// expression tree. Function literal bodies are skipped: the goroutine
// or callback runs under its own (unknown) lock regime.
func (lc *lockChecker) checkExpr(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			lc.checkAccess(n, st, false)
		case *ast.CallExpr:
			lc.checkSinkUnderLock(n, st)
			// delete/clear mutate their first argument.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
				if sel := rootSelector(n.Args[0]); sel != nil {
					lc.checkAccess(sel, st, true)
				}
			}
		}
		return true
	})
}

// checkAccess reports one guarded-field access made without the
// required lock.
func (lc *lockChecker) checkAccess(sel *ast.SelectorExpr, st lockState, write bool) {
	selection, ok := lc.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	g, guarded := lc.guarded[field]
	if !guarded {
		return
	}
	root, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return // nested projection (a.b.guarded); out of intraprocedural scope
	}
	rootObj := lc.pass.TypesInfo.Uses[root]
	if rootObj == nil || lc.fresh[rootObj] {
		return
	}
	level := st[lockKey{root: rootObj, mutex: g.Mutex}]
	switch {
	case level == unlocked:
		lc.pass.Reportf(sel.Pos(),
			"access to %s.%s without holding %s (//asrank:guardedby %s): lock on every path, or name "+
				"the function *Locked if the caller holds it",
			root.Name, field.Name(), g.Mutex, g.Mutex)
	case write && level == readHeld:
		lc.pass.Reportf(sel.Pos(),
			"write to %s.%s while holding only %s.RLock: writes to //asrank:guardedby fields need the "+
				"exclusive lock", root.Name, field.Name(), g.Mutex)
	}
}

// checkSinkUnderLock flags publish sinks invoked with any annotated
// mutex held.
func (lc *lockChecker) checkSinkUnderLock(call *ast.CallExpr, st lockState) {
	held, any := st.anyHeld()
	if !any {
		return
	}
	fn := calleeFunc(lc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	rt := sig.Recv().Type()
	if p, ok := rt.Underlying().(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return
	}
	for _, s := range underLockSinks {
		if fn.Name() == s.name && named.Obj().Name() == s.recv && pkgPathMatches(fn.Pkg().Path(), s.pkg) {
			lc.pass.Reportf(call.Pos(),
				"publish sink %s.%s called while holding %s: publishing performs I/O or a handler "+
					"rebuild and must happen outside the lock", s.recv, s.name, held.mutex)
		}
	}
}

// structOf resolves t (through pointers) to its struct underlying
// type, or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return st
}

// fieldOfStruct reports whether field is declared on st.
func fieldOfStruct(st *types.Struct, field *types.Var) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}

// isPanicCall matches panic(...) — a terminating statement.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
