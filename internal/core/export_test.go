package core

import "context"

// The external test package (churn_test.go) builds its corpora with
// streamtest, which imports core; these are its doors to this package's
// test helpers and to the guard's counters.

// IndexRows is indexRows (dense_test.go).
var IndexRows = indexRows

// GuardCounts is what the cycle guard did over one inference: queries
// asked, ancestor sets walked for them, and ASes those walks marked.
type GuardCounts struct{ Queries, Recomputes, Visited int }

func (in *inferencer) guardCounts() GuardCounts {
	return GuardCounts{in.guard.queries, in.guard.recomputes, in.guard.visited}
}

// DiffDenseOracle is diffDenseOracle (dense_test.go), with the dense
// side's link count and guard counts in place of its inferencer.
func DiffDenseOracle(ix *CorpusIndex, rank, clique []uint32, opts Options) (diff string, links int, guard GuardCounts, refused map[Step]int) {
	diff, in, refused := diffDenseOracle(ix, rank, clique, opts)
	return diff, len(in.res.Rels), in.guardCounts(), refused
}

// InferIndexedGuard is InferIndexed returning the guard's counts too.
func InferIndexedGuard(ctx context.Context, ix *CorpusIndex, rank, clique []uint32, opts Options) (*Result, GuardCounts) {
	in := inferIndexed(ctx, ix, rank, clique, opts)
	return in.res, in.guardCounts()
}
