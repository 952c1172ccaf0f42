// Package trace is a minimal stand-in for the repo's span tracer,
// giving the obsnames golden package StartSpan / StartPhase methods and
// functions in a package named trace — the shape the span-name arm keys
// on.
package trace

import "context"

type Tracer struct{}

type Span struct{}

func New() *Tracer { return &Tracer{} }

func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, nil
}

// StartSpan mirrors the real package-level helper that resumes the
// tracer found in ctx.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, nil
}

// Phase mirrors the real timed-phase value.
type Phase struct{ Span *Span }

func (t *Tracer) StartPhase(ctx context.Context, name string) (context.Context, Phase) {
	return ctx, Phase{}
}

func StartPhase(ctx context.Context, name string) (context.Context, Phase) {
	return ctx, Phase{}
}

func (s *Span) SetAttr(key, value string) {}

func (s *Span) End() {}
