package trace

import (
	"context"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// Phase is one timed unit of work — the single primitive every
// "how long did this take" site goes through, so a phase's span, its
// histogram observation and its report field are one fact recorded
// once. Starting a phase opens the child span of ctx's span (nothing
// when tracing is off for this call tree) and takes the only clock
// read; End closes the span and hands the elapsed time to the sinks it
// is given. Callers never see a time.Time or time.Duration, which is
// what lets the deterministic packages time their work without the
// wall clock ever being in reach of their logic (nodeterminismleak
// bans time.Now and time.Since there outright).
//
// Phase is a plain value: starting and ending one allocates nothing
// and builds no closure when tracing is off, so it is safe per shard
// (pool.task) as well as per stage.
type Phase struct {
	// Span is the phase's span, nil when untraced; attributes and
	// events for the unit of work go here (all Span methods are
	// nil-safe).
	Span *Span
	t0   time.Time
}

// StartPhase begins a phase named name as a child of the span carried
// by ctx, exactly as the package-level StartSpan would; the returned
// context carries the phase's span for nested instrumentation.
//
//asrank:hotpath
func StartPhase(ctx context.Context, name string) (context.Context, Phase) {
	ctx, span := StartSpan(ctx, name)
	return ctx, phaseOf(span)
}

// StartPhase is the root form, for owners of an injected tracer (the
// warehouse store): the span is started on t as Tracer.StartSpan
// would, and a nil Tracer yields a span-less phase that still times.
func (t *Tracer) StartPhase(ctx context.Context, name string) (context.Context, Phase) {
	ctx, span := t.StartSpan(ctx, name)
	return ctx, phaseOf(span)
}

func phaseOf(span *Span) Phase {
	if span != nil {
		return Phase{Span: span, t0: span.Start}
	}
	return Phase{t0: time.Now()}
}

// PhaseSince returns a span-less phase that began at t0 — for elapsed
// times whose start was stamped earlier, by someone else (the stream
// engine's oldest-unserved-event watermark).
func PhaseSince(t0 time.Time) Phase { return Phase{t0: t0} }

// End closes the phase: the span (if any) ends with the measured
// duration, hist (if non-nil) observes it in seconds — pinned with the
// span's trace ID as the bucket's exemplar when the phase was traced —
// and *ms (if non-nil) is set to it in milliseconds. Ending a phase
// twice re-delivers to the sinks but publishes the span only once.
//
//asrank:hotpath
func (p Phase) End(hist *obs.Histogram, ms *float64) {
	d := time.Since(p.t0)
	if p.Span != nil {
		p.Span.endAfter(d)
	}
	if hist != nil {
		if p.Span != nil {
			hist.ObserveExemplar(d.Seconds(), p.Span.Trace.String())
		} else {
			hist.Observe(d.Seconds())
		}
	}
	if ms != nil {
		*ms = float64(d.Nanoseconds()) / 1e6
	}
}
