package checks

import (
	"github.com/asrank-go/asrank/internal/lint/analysis"
	"github.com/asrank-go/asrank/internal/lint/annotate"
)

// AsrankAnnotations is the grammar gate for the //asrank: directive
// family: it reports unknown verbs, hotpath directives outside a
// function doc comment or carrying arguments, and guardedby directives
// that are orphaned, name a nonexistent sibling, or name a sibling
// that is not a sync.Mutex / sync.RWMutex. A malformed annotation
// silently disables the invariant it was meant to carry, so grammar
// errors are findings like any other.
var AsrankAnnotations = &analysis.Analyzer{
	Name: "asrankannotations",
	Doc:  "reports malformed or orphaned //asrank: annotations (unknown verb, bad anchoring, nonexistent or non-mutex guard)",
	Run: func(pass *analysis.Pass) error {
		for _, p := range annotate.Validate(pass.TypesInfo, pass.Files) {
			pass.Reportf(p.Pos, "%s", p.Message)
		}
		return nil
	},
}
