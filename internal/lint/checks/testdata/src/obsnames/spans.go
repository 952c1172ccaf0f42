// Golden input for the span-name arm of obsnames: literals handed to
// trace.StartSpan or trace.StartPhase (method or package function)
// follow the dot-separated lower_snake grammar, and names assembled from
// runtime data are cardinality bombs.
package obsnames

import (
	"context"
	"fmt"

	"trace"
)

var tr = trace.New()

func spans(ctx context.Context, vp string) {
	// Conforming names, mirroring real call sites.
	ctx, s1 := tr.StartSpan(ctx, "core.infer")
	ctx, s2 := trace.StartSpan(ctx, "core.infer.clique_p2p")
	ctx, s3 := tr.StartSpan(ctx, "replay.vp")

	// A variable defeats static checking but is legal: helpers like
	// core's stage() take the literal at their own call site.
	name := "pool.task"
	ctx, s4 := tr.StartSpan(ctx, name)

	// Violations.
	ctx, s5 := tr.StartSpan(ctx, "infer")                             // want "too flat"
	ctx, s6 := tr.StartSpan(ctx, "Core.Infer")                        // want "breaks the house style"
	ctx, s7 := tr.StartSpan(ctx, "core.infer-rank")                   // want "breaks the house style"
	ctx, s8 := tr.StartSpan(ctx, "core..infer")                       // want "breaks the house style"
	ctx, s9 := tr.StartSpan(ctx, "replay.vp."+vp)                     // want "cardinality bomb"
	ctx, s10 := trace.StartSpan(ctx, fmt.Sprintf("replay.vp.%s", vp)) // want "cardinality bomb"

	// Phase names are span names.
	ctx, p1 := trace.StartPhase(ctx, "stream.commit.rank_clique")
	ctx, p2 := tr.StartPhase(ctx, "warehouse.append")
	ctx, p3 := trace.StartPhase(ctx, "commit")             // want "too flat"
	ctx, p4 := tr.StartPhase(ctx, "stream.commit."+vp)     // want "cardinality bomb"
	_, _, _, _ = p1, p2, p3, p4
	_ = ctx
	for _, s := range []*trace.Span{s1, s2, s3, s4, s5, s6, s7, s8, s9, s10} {
		s.End()
	}
}

// A same-named method on an unrelated type is out of scope.
type notTracer struct{}

func (notTracer) StartSpan(ctx context.Context, name string) (context.Context, int) {
	return ctx, 0
}

func notSpans(ctx context.Context) {
	_, _ = notTracer{}.StartSpan(ctx, "Whatever Goes")
}
