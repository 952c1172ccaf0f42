package trace

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// TestPhaseFeedsEverySink: one StartPhase/End pair is one fact on three
// surfaces — a child span, a histogram observation whose exemplar names
// the span's trace, and a report field in milliseconds — and all three
// carry the same elapsed time.
func TestPhaseFeedsEverySink(t *testing.T) {
	tr := New()
	reg := obs.NewRegistry()
	hist := reg.Histogram("asrank_test_phase_duration_seconds", "Test.", obs.DurationBuckets)
	ctx, root := tr.StartSpan(context.Background(), "test.root")

	pctx, ph := StartPhase(ctx, "test.root.phase")
	if ph.Span == nil || ph.Span.Parent != root.ID || ph.Span.Trace != root.Trace {
		t.Fatalf("phase span %+v is not a child of the root", ph.Span)
	}
	if FromContext(pctx) != ph.Span {
		t.Fatal("returned context does not carry the phase span")
	}
	time.Sleep(2 * time.Millisecond)
	var ms float64
	ph.End(hist, &ms)
	root.End()

	if ms < 2 {
		t.Errorf("report field = %.3f ms, want >= 2", ms)
	}
	if got := float64(ph.Span.Dur.Nanoseconds()) / 1e6; got != ms {
		t.Errorf("span took %.6f ms but the report field says %.6f: two clock reads", got, ms)
	}
	if got := hist.Sum() * 1e3; hist.Count() != 1 || got < ms-1e-6 || got > ms+1e-6 {
		t.Errorf("histogram holds %d observations summing to %.6f ms, want 1 of %.6f", hist.Count(), got, ms)
	}
	if expo := reg.ExposeOpenMetrics(); !strings.Contains(expo, `# {trace_id="`+root.Trace.String()+`"}`) {
		t.Errorf("no exemplar carrying trace %s:\n%s", root.Trace, expo)
	}
	var names []string
	for _, s := range tr.Flight() {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, " "); got != "test.root test.root.phase" {
		t.Errorf("flight recorder holds %q", got)
	}

	// A second End re-delivers to its sinks but publishes no second span.
	ph.End(nil, nil)
	if n := len(tr.Flight()); n != 2 {
		t.Errorf("double End published %d spans, want 2", n)
	}
}

// TestPhaseSinksAreOptional: nil histogram, nil field, span-less
// context, nil tracer and a stamped start all degrade to no-ops or to a
// plain untraced observation.
func TestPhaseSinksAreOptional(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("asrank_test_phase_duration_seconds", "Test.", obs.DurationBuckets)

	ctx, ph := StartPhase(context.Background(), "test.untraced")
	if ph.Span != nil || FromContext(ctx) != nil {
		t.Fatal("span-less context grew a span")
	}
	ph.Span.SetAttr("k", "v") // nil-safe, like every Span method
	ph.End(nil, nil)
	ph.End(hist, nil)
	if hist.Count() != 1 {
		t.Errorf("untraced phase observed %d times, want 1", hist.Count())
	}
	if expo := reg.ExposeOpenMetrics(); strings.Contains(expo, "trace_id") {
		t.Errorf("untraced observation grew an exemplar:\n%s", expo)
	}

	var nilTracer *Tracer
	if _, ph := nilTracer.StartPhase(context.Background(), "test.nil_tracer"); ph.Span != nil {
		t.Error("nil tracer produced a span")
	}

	var ms float64
	PhaseSince(time.Now().Add(-50*time.Millisecond)).End(nil, &ms)
	if ms < 50 || ms > 5000 {
		t.Errorf("stamped phase measured %.1f ms, want about 50", ms)
	}
}

// TestPhaseAllocFreeUntraced pins the per-shard cost contract: with
// tracing off, starting and ending a phase into both sinks allocates
// nothing.
func TestPhaseAllocFreeUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	hist := obs.NewRegistry().Histogram("asrank_test_phase_duration_seconds", "Test.", obs.DurationBuckets)
	ctx := context.Background()
	var ms float64
	if n := testing.AllocsPerRun(200, func() {
		_, ph := StartPhase(ctx, "test.alloc")
		ph.End(hist, &ms)
	}); n != 0 {
		t.Errorf("untraced phase allocates %.1f objects per run, want 0", n)
	}
}
