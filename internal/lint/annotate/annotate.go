// Package annotate parses the repository's invariant-carrying source
// annotations — the `//asrank:` directive family the dataflow analyzers
// in internal/lint/checks consume:
//
//	//asrank:hotpath
//	    In a function's doc comment. Declares the function part of the
//	    zero-allocation serving path; hotpathalloc flags
//	    allocation-forcing constructs inside it, and the AllocsPerRun
//	    pins in the test suite are cross-checked against the marked set.
//
//	//asrank:guardedby <mutex>
//	    On a struct field (doc or trailing comment). Declares the field
//	    readable/writable only while the named sibling mutex is held;
//	    lockdiscipline enforces it on every intraprocedural path.
//
// Parsing is deliberately separated from enforcement: the two
// analyzers consume only well-formed directives, while the
// asrankannotations analyzer reports every grammar or anchoring
// problem (unknown verb, orphaned hotpath, guardedby naming a
// nonexistent or non-mutex sibling), so a typo cannot silently disable
// the invariant it was meant to carry.
package annotate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Prefix is the directive marker. The verb follows with no space
// (mirroring //go:build and //lint:ignore).
const Prefix = "//asrank:"

// Verbs recognized by the suite.
const (
	VerbHotpath   = "hotpath"
	VerbGuardedBy = "guardedby"
)

// Problem is one malformed or orphaned directive.
type Problem struct {
	Pos     token.Pos
	Message string
}

// Hotpaths returns the functions marked //asrank:hotpath, keyed by
// their types.Func object (methods and plain functions alike). The
// directive must sit inside the function's doc comment group; hotpath
// directives anywhere else are anchoring problems, reported by
// Validate.
func Hotpaths(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				verb, _, ok := split(c.Text)
				if !ok || verb != VerbHotpath {
					continue
				}
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// Guard names the mutex protecting one annotated field.
type Guard struct {
	Mutex string     // sibling field name, e.g. "mu"
	Field *types.Var // the annotated field
}

// Guarded returns every well-formed //asrank:guardedby annotation,
// keyed by the annotated field object. Malformed or orphaned
// directives are omitted here and reported by Validate.
func Guarded(info *types.Info, files []*ast.File) map[*types.Var]Guard {
	out := make(map[*types.Var]Guard)
	eachGuardDirective(info, files, func(field *types.Var, mutex string, ok bool, _ token.Pos, _ string) {
		if ok {
			out[field] = Guard{Mutex: mutex, Field: field}
		}
	})
	return out
}

// Validate reports every grammar or anchoring problem in the files'
// //asrank: directives: unknown verbs, hotpath outside a function doc
// comment or carrying arguments, guardedby off a struct field or
// naming a nonexistent / non-mutex sibling.
func Validate(info *types.Info, files []*ast.File) []Problem {
	var out []Problem
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Problem{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	// Comments legitimately anchored: function docs (hotpath), field
	// docs/trailers (guardedby).
	funcDoc := make(map[*ast.Comment]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					funcDoc[c] = true
				}
			}
		}
	}
	fieldComment := make(map[*ast.Comment]bool)
	eachField(files, func(field *ast.Field) {
		for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				fieldComment[c] = true
			}
		}
	})

	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, Prefix) {
					continue
				}
				verb, rest, _ := split(c.Text)
				switch verb {
				case VerbHotpath:
					if rest != "" {
						report(c.Pos(), "//asrank:hotpath takes no arguments (got %q)", rest)
					} else if !funcDoc[c] {
						report(c.Pos(), "orphaned //asrank:hotpath: the directive must sit in a function's doc comment")
					}
				case VerbGuardedBy:
					if !fieldComment[c] {
						report(c.Pos(), "orphaned //asrank:guardedby: the directive must annotate a struct field")
					}
					// Field-anchored grammar (arity, sibling resolution)
					// is checked in the per-field walk below.
				default:
					report(c.Pos(), "unknown //asrank: directive %q (want hotpath or guardedby)", verb)
				}
			}
		}
	}

	eachGuardDirective(info, files, func(field *types.Var, mutex string, ok bool, pos token.Pos, problem string) {
		if !ok {
			report(pos, "%s", problem)
		}
	})
	return out
}

// eachField visits every struct field declaration in the files.
func eachField(files []*ast.File, fn func(*ast.Field)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				fn(field)
			}
			return true
		})
	}
}

// eachGuardDirective resolves every //asrank:guardedby directive
// anchored to a struct field: cb receives the annotated field, the
// mutex name, whether the directive is well-formed, and the problem
// text when it is not. Directives not anchored to any field never
// reach cb (Validate reports those from the comment walk).
func eachGuardDirective(info *types.Info, files []*ast.File, cb func(field *types.Var, mutex string, ok bool, pos token.Pos, problem string)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					for _, c := range cg.List {
						verb, rest, ok := split(c.Text)
						if !ok || verb != VerbGuardedBy {
							continue
						}
						resolveGuard(info, st, field, rest, c.Pos(), cb)
					}
				}
			}
			return true
		})
	}
}

// resolveGuard validates one field-anchored guardedby directive.
func resolveGuard(info *types.Info, st *ast.StructType, field *ast.Field, arg string, pos token.Pos, cb func(*types.Var, string, bool, token.Pos, string)) {
	if len(field.Names) == 0 {
		cb(nil, "", false, pos, "//asrank:guardedby cannot annotate an embedded field")
		return
	}
	args := strings.Fields(arg)
	if len(args) != 1 {
		cb(nil, "", false, pos, fmt.Sprintf("malformed //asrank:guardedby directive: want exactly one mutex name, got %q", arg))
		return
	}
	mutex := args[0]
	var mutexField *ast.Field
	for _, sibling := range st.Fields.List {
		for _, name := range sibling.Names {
			if name.Name == mutex {
				mutexField = sibling
			}
		}
	}
	if mutexField == nil {
		cb(nil, "", false, pos, fmt.Sprintf("//asrank:guardedby names %q, which is not a field of the same struct", mutex))
		return
	}
	if !isMutexType(info.TypeOf(mutexField.Type)) {
		cb(nil, "", false, pos, fmt.Sprintf("//asrank:guardedby names %q, which is not a sync.Mutex or sync.RWMutex", mutex))
		return
	}
	for _, name := range field.Names {
		if name.Name == mutex {
			cb(nil, "", false, pos, "//asrank:guardedby cannot guard the mutex with itself")
			return
		}
		v, ok := info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		cb(v, mutex, true, pos, "")
	}
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a
// pointer to either.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// split parses "//asrank:verb rest..." returning (verb, trimmed rest).
// ok is false for comments that are not //asrank: directives at all.
func split(text string) (verb, rest string, ok bool) {
	body, found := strings.CutPrefix(text, Prefix)
	if !found {
		return "", "", false
	}
	// A trailing "// want ..." belongs to the linttest harness.
	if i := strings.Index(body, "// want"); i >= 0 {
		body = body[:i]
	}
	verb, rest, _ = strings.Cut(body, " ")
	return strings.TrimSpace(verb), strings.TrimSpace(rest), true
}
