package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"github.com/asrank-go/asrank/internal/lint/analysis"
)

// ObsNames checks, at vet time, every string literal handed to an
// obs.Registry constructor (Counter, CounterVec, Gauge, GaugeVec,
// Histogram, HistogramVec) against the Prometheus data-model grammar
// and the repo's house style:
//
//	asrank_<subsystem>_<noun>[_<unit>][_total]
//
// Concretely: lowercase [a-z0-9_] segments with an asrank_ prefix and
// at least three segments; counters end in _total; gauges do not;
// histograms end in a unit (_seconds or _bytes). Label names are
// lowercase identifiers and may not collide with the reserved le,
// quantile, or __-prefixed names. The runtime exposition linter in
// internal/obs enforces the same rules at test time; this analyzer
// moves the failure to `make lint`, before a process ever scrapes.
// Registrations in _test.go files are exempt (tests exercise the
// registry itself, including its panics on bad names).
//
// The same analyzer covers span names handed to trace.StartSpan and
// trace.StartPhase (the Tracer methods and the package-level functions
// alike): a literal name must be two or more dot-separated lower_snake
// segments (subsystem.operation..., e.g. core.infer.rank), and a name built at
// the call site from runtime data — string concatenation or
// fmt.Sprint* — is flagged as a cardinality bomb: per-entity span
// names shatter trace aggregation, so variable data belongs in
// SetAttr, not the name. A plain variable is allowed (helpers such as
// core's stager.run take the literal at their own call site, where
// this analyzer still sees it as greppable text).
//
// Event names handed to the oplog journal (Emit, and the Debug / Info
// / Warn / Error shorthands) follow the identical grammar and the
// identical cardinality rule: "stream.commit" aggregates, a name
// carrying an epoch number does not — the epoch belongs in an attr.
var ObsNames = &analysis.Analyzer{
	Name: "obsnames",
	Doc: "statically checks obs metric and label name literals against " +
		"the Prometheus grammar and the asrank_<subsystem>_... house style, " +
		"and trace span name literals against the dot-separated lower_snake grammar",
	Run: runObsNames,
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	houseSegRe  = regexp.MustCompile(`^[a-z][a-z0-9]*$|^[0-9][a-z0-9]*$`)
	houseLabRe  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	unitSuffix  = []string{"_seconds", "_bytes"}
	constructor = map[string]string{
		"Counter": "counter", "CounterVec": "counter",
		"Gauge": "gauge", "GaugeVec": "gauge",
		"Histogram": "histogram", "HistogramVec": "histogram",
	}

	// Span names: subsystem.operation[...], each segment lower_snake.
	spanSegRe  = regexp.MustCompile(`^[a-z][a-z0-9]*(?:_[a-z0-9]+)*$`)
	spanNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(?:_[a-z0-9]+)*(?:\.[a-z][a-z0-9]*(?:_[a-z0-9]+)*)+$`)

	// Journal emitters and the index of their event-name argument:
	// Emit(ctx, sev, name, ...), shorthands (ctx, name, ...).
	oplogNameArg = map[string]int{"Emit": 2, "Debug": 1, "Info": 1, "Warn": 1, "Error": 1}
)

func runObsNames(pass *analysis.Pass) error {
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || pass.InTestFile(call.Pos()) {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if (sel.Sel.Name == "StartSpan" || sel.Sel.Name == "StartPhase") && isTraceFunc(pass.TypesInfo, sel) && len(call.Args) >= 2 {
			checkDottedName(pass, call.Args[1], "span name")
			return
		}
		if idx, ok := oplogNameArg[sel.Sel.Name]; ok && isOplogFunc(pass.TypesInfo, sel) && len(call.Args) > idx {
			checkDottedName(pass, call.Args[idx], "oplog event name")
			return
		}
		kind, ok := constructor[sel.Sel.Name]
		if !ok || !isObsRegistry(pass.TypesInfo, sel.X) || len(call.Args) < 2 {
			return
		}
		checkName(pass, call.Args[0], kind)
		checkHelp(pass, call.Args[1])
		labelStart := 2
		if sel.Sel.Name == "HistogramVec" {
			labelStart = 3 // buckets sit between help and labels
		}
		if strings.HasSuffix(sel.Sel.Name, "Vec") {
			for _, arg := range call.Args[labelStart:] {
				checkLabel(pass, arg)
			}
		}
	})
	return nil
}

// isObsRegistry reports whether expr's static type is (a pointer to)
// the Registry type of a package named obs.
func isObsRegistry(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

func stringLit(expr ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(expr).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func checkName(pass *analysis.Pass, arg ast.Expr, kind string) {
	name, ok := stringLit(arg)
	if !ok {
		pass.Reportf(arg.Pos(),
			"metric name must be a string literal so it is checkable at vet time")
		return
	}
	if !promNameRe.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %q is not a valid Prometheus metric name", name)
		return
	}
	segs := strings.Split(name, "_")
	for _, s := range segs {
		if s == "" || !houseSegRe.MatchString(s) {
			pass.Reportf(arg.Pos(),
				"metric name %q breaks the house style: lowercase [a-z0-9] segments separated by single underscores", name)
			return
		}
	}
	if segs[0] != "asrank" {
		pass.Reportf(arg.Pos(), "metric name %q must carry the asrank_ namespace prefix", name)
		return
	}
	if len(segs) < 3 {
		pass.Reportf(arg.Pos(),
			"metric name %q is too flat: want asrank_<subsystem>_<noun>... (>= 3 segments)", name)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "counter %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "gauge %q must not end in _total (that suffix marks counters)", name)
		}
	case "histogram":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "histogram %q must not end in _total (that suffix marks counters)", name)
			return
		}
		hasUnit := false
		for _, u := range unitSuffix {
			if strings.HasSuffix(name, u) {
				hasUnit = true
			}
		}
		if !hasUnit {
			pass.Reportf(arg.Pos(), "histogram %q must end in a base unit (_seconds or _bytes)", name)
		}
	}
}

func checkHelp(pass *analysis.Pass, arg ast.Expr) {
	help, ok := stringLit(arg)
	if !ok {
		return // non-literal help is legal, just unusual
	}
	if strings.TrimSpace(help) == "" {
		pass.Reportf(arg.Pos(), "metric help string must not be empty")
	}
}

// isTraceFunc reports whether the selected function or method is
// defined by a package named trace — covering the (*trace.Tracer)
// methods and the package-level functions alike, and excluding
// same-named methods on unrelated types.
func isTraceFunc(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "trace" || strings.HasSuffix(path, "/trace")
}

// isOplogFunc reports whether the selected method is defined by a
// package named oplog — the journal's Emit/Debug/Info/Warn/Error,
// excluding same-named methods on unrelated types (notably the error
// interface's Error()).
func isOplogFunc(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "oplog" || strings.HasSuffix(path, "/oplog")
}

// checkDottedName enforces the shared dot-separated lower_snake grammar
// on span and oplog event names; what names the kind in diagnostics.
func checkDottedName(pass *analysis.Pass, arg ast.Expr, what string) {
	arg = ast.Unparen(arg)
	switch e := arg.(type) {
	case *ast.BasicLit:
		name, ok := stringLit(e)
		if !ok {
			return
		}
		switch {
		case spanNameRe.MatchString(name):
			// conforming
		case spanSegRe.MatchString(name):
			pass.Reportf(arg.Pos(),
				"%s %q is too flat: want <subsystem>.<operation>... (>= 2 dot-separated segments)", what, name)
		default:
			pass.Reportf(arg.Pos(),
				"%s %q breaks the house style: dot-separated lower_snake segments (e.g. core.infer.rank)", what, name)
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			pass.Reportf(arg.Pos(),
				"%s built by string concatenation is a cardinality bomb: use a constant name and attach variable data as attributes", what)
		}
	case *ast.CallExpr:
		if fsel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[fsel.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Sprint") {
				pass.Reportf(arg.Pos(),
					"%s built by fmt.%s is a cardinality bomb: use a constant name and attach variable data as attributes", what, fn.Name())
			}
		}
	}
	// Anything else (a variable, a named constant, a helper's parameter)
	// defeats static checking but is legal: the literal is checked where
	// it is written.
}

func checkLabel(pass *analysis.Pass, arg ast.Expr) {
	label, ok := stringLit(arg)
	if !ok {
		pass.Reportf(arg.Pos(),
			"label name must be a string literal so it is checkable at vet time")
		return
	}
	switch {
	case label == "le" || label == "quantile":
		pass.Reportf(arg.Pos(), "label %q is reserved by the Prometheus exposition format", label)
	case strings.HasPrefix(label, "__"):
		pass.Reportf(arg.Pos(), "label %q uses the reserved __ prefix", label)
	case !houseLabRe.MatchString(label):
		pass.Reportf(arg.Pos(),
			"label %q breaks the house style: lowercase identifier matching [a-z][a-z0-9_]*", label)
	}
}
