// Command asrank-lint is the repo's invariant multichecker: nine
// custom analyzers enforcing the bounded-concurrency, determinism,
// observability-naming, error-wrapping, and typed-atomics rules plus
// the three dataflow invariants behind the serving stack —
// publish-freeze (immutablepub), zero-allocation hot paths
// (hotpathalloc), and lock discipline (lockdiscipline) — together
// with the //asrank: annotation grammar itself (asrankannotations).
// See DESIGN.md §9.
//
//	asrank-lint ./...                  # lint the whole repository
//	asrank-lint ./internal/collector   # or just some packages
//	asrank-lint -list                  # describe the analyzers
//
// The run is sequential (about a second for the whole repository) and
// findings are sorted by file/offset/analyzer before rendering, so
// output is byte-stable.
//
// Suppress one finding with a reasoned directive on (or directly
// above) the offending line:
//
//	//lint:ignore noderivedgo accept loop lives for the server's lifetime
//
// Unused or reasonless directives — and directives naming an analyzer
// that is not registered — are themselves findings. The dataflow
// analyzers additionally read the //asrank:hotpath and
// //asrank:guardedby annotations documented in DESIGN.md §9.
//
// Exit codes: 0 no findings; 1 findings; 2 the run itself failed.
package main

import (
	"os"

	"github.com/asrank-go/asrank/internal/lint"
)

func main() {
	os.Exit(lint.Run(os.Args[1:], os.Stdout, os.Stderr))
}
