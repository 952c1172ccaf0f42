// Package trace is the repo's dependency-free span tracer: the causal
// counterpart of internal/obs. Where obs answers "how much" (counters,
// histograms), trace answers "where did the time go inside this run" —
// a tree of timed spans with attributes and events, recorded into an
// always-on fixed-size flight recorder and exportable as Chrome
// trace_event JSON (loadable in chrome://tracing and Perfetto) or as a
// human-readable tree summary.
//
// Like obs.Registry, Tracer instances are explicit and injectable; a
// nil *Tracer is the disabled tracer, and every method on a nil Tracer
// or nil Span is a no-op cheap enough to leave in the hottest paths
// (StartSpan on a nil Tracer is a single branch — benchmarked under
// 5ns). Spans propagate through context.Context: a caller installs a
// root span with Tracer.StartSpan, and downstream code calls the
// package-level StartSpan, which is silent unless a parent span is in
// the context.
//
// Span names follow the house style enforced by the obsnames analyzer:
// lower_snake segments joined by dots, namespace first — for example
// pool.task, core.infer.top_down, replay.vp. Names are low-cardinality
// by construction; variable data (shard indexes, AS numbers, error
// text) goes in attributes and events, never the name.
//
// Completed spans are delivered to the tracer's flight recorder — a
// fixed-size ring of atomic slots that overwrites the oldest span and
// never blocks the instrumented goroutine — and to any live Captures
// (the /debug/trace?sec=N surface). A crashed or slow run can therefore
// be explained after the fact by dumping /debug/flight, without having
// arranged anything up front.
package trace

import (
	"context"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one causal tree of spans, W3C-sized (16 bytes) so
// it round-trips through traceparent headers.
type TraceID [16]byte

// IsValid reports whether the ID is non-zero.
func (id TraceID) IsValid() bool { return id != TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// flightSize is how many completed spans the flight-recorder ring keeps
// before evicting the oldest.
const flightSize = 4096

// Tracer allocates span identity and fans completed spans out to the
// flight ring and any live captures. The zero value is not usable; call
// New. A nil *Tracer is the disabled tracer: StartSpan returns the
// context unchanged and a nil span.
type Tracer struct {
	ring    *Ring[Span]
	ids     atomic.Uint64 // span-ID allocator; 0 is reserved for "no parent"
	traceLo atomic.Uint64 // per-root trace-ID allocator
	epoch   [8]byte       // high half of every locally minted TraceID

	mu    sync.Mutex // guards sink add/remove (copy-on-write)
	sinks atomic.Pointer[[]*Capture]
}

// New returns a Tracer with an empty flight recorder.
func New() *Tracer {
	t := &Tracer{ring: NewRing[Span](flightSize)}
	// The epoch distinguishes trace IDs across processes; the low half
	// is a counter so IDs stay unique and cheap within one.
	nano := uint64(time.Now().UnixNano())
	for i := 0; i < 8; i++ {
		t.epoch[i] = byte(nano >> (56 - 8*i))
	}
	return t
}

// newTraceID mints a locally unique trace ID: process epoch in the high
// half, an allocation counter in the low half.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	copy(id[:8], t.epoch[:])
	lo := t.traceLo.Add(1)
	for i := 0; i < 8; i++ {
		id[8+i] = byte(lo >> (56 - 8*i))
	}
	return id
}

// spanKey carries the current span; remoteKey carries a parent span
// context received over the wire (traceparent) before any local span
// exists for it.
type (
	spanKey   struct{}
	remoteKey struct{}
)

type remoteParent struct {
	trace TraceID
	span  uint64
}

// FromContext returns the current span, or nil when the context carries
// none (tracing disabled for this call tree).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithRemote records a parent span context received from a peer
// (a traceparent header): the next span started from ctx joins that
// trace as a child of the remote span.
func ContextWithRemote(ctx context.Context, id TraceID, span uint64) context.Context {
	return context.WithValue(ctx, remoteKey{}, remoteParent{trace: id, span: span})
}

// StartSpan starts a span named name as a child of the span in ctx (or
// of a remote parent installed by ContextWithRemote, or as a new root)
// and returns a context carrying it. On a nil Tracer it returns
// (ctx, nil) — a single branch, cheap enough for unconditioned
// instrumentation. The caller must End the span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		tracer:    t,
		Name:      name,
		ID:        t.ids.Add(1),
		Goroutine: goid(),
		Start:     time.Now(),
	}
	switch parent := FromContext(ctx); {
	case parent != nil && parent.tracer == t:
		s.Trace, s.Parent = parent.Trace, parent.ID
	default:
		if rp, ok := ctx.Value(remoteKey{}).(remoteParent); ok && rp.trace.IsValid() {
			s.Trace, s.Parent, s.RemoteParent = rp.trace, rp.span, true
		} else {
			s.Trace = t.newTraceID()
		}
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpan starts a child of the span carried by ctx. When ctx carries
// no span — tracing is off for this call tree — it returns (ctx, nil)
// without touching any tracer. This is the form instrumentation sites
// use; only roots go through Tracer.StartSpan.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.StartSpan(ctx, name)
}

// publish delivers a completed span to the flight ring and live sinks.
func (t *Tracer) publish(s *Span) {
	t.ring.Add(s)
	if sinks := t.sinks.Load(); sinks != nil {
		for _, c := range *sinks {
			c.add(s)
		}
	}
}

// Flight returns the flight recorder's current contents ordered by
// start time, span ID breaking ties. The returned spans are completed
// and immutable.
func (t *Tracer) Flight() []*Span {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot(func(a, b *Span) bool {
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.ID < b.ID
	})
}

// Capture accumulates completed spans from the moment it is created
// until Stop, up to its limit — the building block of both the -trace
// CLI flag (subscribe for the whole run) and /debug/trace?sec=N
// (subscribe for a window).
type Capture struct {
	t       *Tracer
	limit   int
	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// NewCapture subscribes a capture holding at most limit spans
// (limit <= 0 selects 1<<17). Stop it to unsubscribe.
func (t *Tracer) NewCapture(limit int) *Capture {
	if limit <= 0 {
		limit = 1 << 17
	}
	c := &Capture{t: t, limit: limit}
	if t == nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var next []*Capture
	if cur := t.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, c)
	t.sinks.Store(&next)
	return c
}

// Stop unsubscribes the capture; its collected spans stay readable.
func (c *Capture) Stop() {
	if c.t == nil {
		return
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	cur := c.t.sinks.Load()
	if cur == nil {
		return
	}
	next := make([]*Capture, 0, len(*cur))
	for _, s := range *cur {
		if s != c {
			next = append(next, s)
		}
	}
	c.t.sinks.Store(&next)
}

func (c *Capture) add(s *Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) >= c.limit {
		c.dropped++
		return
	}
	c.spans = append(c.spans, s)
}

// Spans returns the captured spans in completion order.
func (c *Capture) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Span(nil), c.spans...)
}

// Dropped reports how many spans arrived after the capture was full.
func (c *Capture) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
