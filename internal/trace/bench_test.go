package trace

import (
	"context"
	"testing"
)

var (
	benchCtx  context.Context
	benchSpan *Span
)

// BenchmarkStartSpanNilTracer measures the disabled-tracer path — the
// cost every instrumented call site pays when no tracer is injected.
// It must stay a single branch; TestDisabledOverhead pins the budget.
func BenchmarkStartSpanNilTracer(b *testing.B) {
	var tr *Tracer
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCtx, benchSpan = tr.StartSpan(ctx, "bench.noop")
	}
}

// BenchmarkStartSpanNoParent measures the package-level StartSpan when
// the context carries no span — the instrumentation-site cost with
// tracing off: one ctx.Value probe.
func BenchmarkStartSpanNoParent(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCtx, benchSpan = StartSpan(ctx, "bench.noop")
	}
}

// BenchmarkStartSpanEnabled is the enabled-path cost for scale: span
// alloc + goid parse + ring publish.
func BenchmarkStartSpanEnabled(b *testing.B) {
	tr := New()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := tr.StartSpan(ctx, "bench.span")
		s.End()
	}
}

// TestDisabledOverhead enforces the acceptance criterion: StartSpan on
// a nil Tracer costs under 5 ns/op. Skipped under -race (detector
// instrumentation multiplies every memory access) and -short.
func TestDisabledOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in short mode")
	}
	res := testing.Benchmark(BenchmarkStartSpanNilTracer)
	if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns >= 5 {
		t.Errorf("nil-tracer StartSpan = %.2f ns/op, want < 5", ns)
	}
	if res.AllocsPerOp() != 0 {
		t.Errorf("nil-tracer StartSpan allocates %d/op, want 0", res.AllocsPerOp())
	}
}
