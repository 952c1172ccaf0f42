// Package tracecli is the shared -trace plumbing of the batch CLIs
// (asrank, ascone, bgpsim): create a tracer, open a root span, capture
// every span the run completes, and at exit write the capture as Chrome
// trace_event JSON — self-checked against the exporter's schema so a
// corrupt file fails the run instead of failing later in Perfetto.
package tracecli

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"github.com/asrank-go/asrank/internal/trace"
)

// Run owns one CLI invocation's tracing state. A nil *Run (returned
// when no -trace path was given) is inert: Context returns the
// background context and Finish does nothing, so call sites need no
// conditionals.
type Run struct {
	tracer *trace.Tracer
	cap    *trace.Capture
	root   *trace.Span
	ctx    context.Context
	path   string
}

// Start begins a traced run writing to path at Finish; rootName names
// the root span (e.g. "asrank.run"). An empty path returns nil.
func Start(path, rootName string) *Run {
	if path == "" {
		return nil
	}
	tracer := trace.New()
	r := &Run{tracer: tracer, cap: tracer.NewCapture(0), path: path}
	r.ctx, r.root = tracer.StartSpan(context.Background(), rootName)
	return r
}

// Context returns the context carrying the root span (background for a
// nil Run).
func (r *Run) Context() context.Context {
	if r == nil {
		return context.Background()
	}
	return r.ctx
}

// Root returns the root span (nil for a nil Run) for attaching
// run-level attributes.
func (r *Run) Root() *trace.Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Finish ends the root span, validates the captured trace, and writes
// it to the -trace path ("-" = stdout). When tree is non-nil (the
// -stats companion) the human-readable span tree is rendered there
// too. No-op on a nil Run.
func (r *Run) Finish(tree io.Writer) error {
	if r == nil {
		return nil
	}
	r.root.End()
	r.cap.Stop()
	spans := r.cap.Spans()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := trace.CheckChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("trace: emitted file fails schema self-check: %w", err)
	}
	if tree != nil {
		fmt.Fprintf(tree, "\n-- trace (%d spans", len(spans))
		if d := r.cap.Dropped(); d > 0 {
			fmt.Fprintf(tree, ", %d dropped", d)
		}
		fmt.Fprintf(tree, ") --\n")
		if err := trace.WriteTree(tree, spans); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if r.path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(r.path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
