// Package oplog is the repo's structured operational event journal:
// the narrative counterpart of internal/obs and internal/trace. Where
// obs answers "how much" and trace answers "where did the time go",
// oplog answers "what happened, in order" — typed key/value events
// with a severity, a monotonic sequence number, and (when a span is
// active in the caller's context) the trace ID that correlates the
// event with the flight recorder.
//
// Events land in a bounded lock-free ring (trace.Ring, the same one
// behind the span flight recorder) — the journal never blocks an
// instrumented goroutine and never grows without bound — and are
// optionally teed to an NDJSON sink (one JSON object per line, for
// shipping) and a human-readable Logf (so asrankd's console output
// stays greppable while the structured record is authoritative).
//
// Event names follow the same house grammar the obsnames analyzer
// enforces for span names: lower_snake segments joined by dots,
// namespace first — asrankd.drain.begin, stream.commit, collector.
// session.up. Variable data (counts, addresses, durations) goes in
// attributes, never the name, so names stay low-cardinality and the
// journal stays aggregatable.
//
// Like obs.Registry and trace.Tracer, journals are explicit and
// injectable, and a nil *Journal is the disabled journal: every method
// is a cheap no-op, so packages can take an optional journal without
// guarding call sites.
package oplog

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// Severity classifies an event. The journal keeps every severity;
// readers filter (/debug/oplog?sev=).
type Severity uint8

const (
	Debug Severity = iota
	Info
	Warn
	Error
)

// String renders the severity as its lowercase label.
func (s Severity) String() string {
	switch s {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "unknown"
}

// Attr is one key/value pair on an event: the same flat string-or-int64
// pair a span carries, so one attribute type serves both surfaces. A
// JSON attribute's Str is an encoded JSON value.
type Attr = trace.Attr

// String returns a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int returns an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, IsInt: true} }

// JSON returns v, marshalled once, as a JSON attribute: the NDJSON
// sink nests it as a value and the text tee prints it as is. A value
// that does not marshal is recorded as the error's text.
func JSON(key string, v any) Attr {
	b, err := json.Marshal(v)
	if err != nil {
		return Attr{Key: key, Str: err.Error()}
	}
	return Attr{Key: key, Str: string(b), JSON: true}
}

// Duration returns the duration as integer milliseconds under key.
// Millisecond resolution keeps operational timings readable; phase
// timings finer than that belong in trace spans, not the journal.
func Duration(key string, d time.Duration) Attr {
	return Attr{Key: key, Int: d.Milliseconds(), IsInt: true}
}

// Event is one journal entry. Events are immutable once published;
// readers obtained from Recent or a sink see fully written events.
type Event struct {
	Seq   uint64
	Time  time.Time
	Sev   Severity
	Name  string
	Trace string // hex trace ID when a span was active, else ""
	Attrs []Attr
}

// Options configures a Journal.
type Options struct {
	// RingSize is how many events the in-memory ring keeps before
	// overwriting the oldest (default 4096).
	RingSize int
	// Sink, when non-nil, receives every event as one NDJSON
	// line. Writes are serialized by the journal; a slow sink slows
	// emitters, so point it at a file or buffered pipe, not a socket.
	Sink io.Writer
	// Logf, when non-nil, receives a human-readable rendering of every
	// event ("info asrankd.listen addr=127.0.0.1:8080") — the tee
	// that keeps console output alive while the structured record is
	// the one that ships.
	Logf func(format string, args ...any)
	// Registry, when non-nil, gets an asrank_oplog_events_total
	// counter labeled by severity so event volume is visible on
	// /metrics without scraping the journal itself.
	Registry *obs.Registry
}

// Journal records events. The zero value is not usable; call New. A
// nil *Journal is the disabled journal.
type Journal struct {
	ring *trace.Ring[Event]
	seq  atomic.Uint64
	logf func(format string, args ...any)

	events *obs.CounterVec // nil when no registry was given

	mu   sync.Mutex // serializes sink writes and owns buf
	sink io.Writer
	buf  []byte
}

// New returns a Journal with an empty ring.
func New(opts Options) *Journal {
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	j := &Journal{
		ring: trace.NewRing[Event](opts.RingSize),
		sink: opts.Sink,
		logf: opts.Logf,
	}
	if opts.Registry != nil {
		j.events = opts.Registry.CounterVec(
			"asrank_oplog_events_total",
			"Operational journal events recorded, by severity.",
			"severity")
	}
	return j
}

// Emit records one event. The context supplies trace correlation: when
// a span is active (trace.FromContext), the event carries its trace
// ID. Safe on a nil Journal, and from any goroutine.
func (j *Journal) Emit(ctx context.Context, sev Severity, name string, attrs ...Attr) {
	if j == nil {
		return
	}
	e := &Event{
		Seq:   j.seq.Add(1),
		Time:  time.Now(),
		Sev:   sev,
		Name:  name,
		Attrs: attrs,
	}
	if ctx != nil {
		if s := trace.FromContext(ctx); s != nil && s.Trace.IsValid() {
			e.Trace = s.Trace.String()
		}
	}
	j.ring.Add(e)
	if j.events != nil {
		j.events.With(sev.String()).Inc()
	}
	if j.logf != nil {
		j.logf("%s", renderText(e))
	}
	if j.sink != nil {
		j.mu.Lock()
		j.buf = appendNDJSON(j.buf[:0], e)
		// Write errors are swallowed: the journal must never take the
		// serving path down because a log disk filled up. The ring and
		// counters stay correct regardless.
		_, _ = j.sink.Write(j.buf)
		j.mu.Unlock()
	}
}

// Severity shorthands. All are nil-safe.

// Debug records a Debug-severity event.
func (j *Journal) Debug(ctx context.Context, name string, attrs ...Attr) {
	j.Emit(ctx, Debug, name, attrs...)
}

// Info records an Info-severity event.
func (j *Journal) Info(ctx context.Context, name string, attrs ...Attr) {
	j.Emit(ctx, Info, name, attrs...)
}

// Warn records a Warn-severity event.
func (j *Journal) Warn(ctx context.Context, name string, attrs ...Attr) {
	j.Emit(ctx, Warn, name, attrs...)
}

// Error records an Error-severity event.
func (j *Journal) Error(ctx context.Context, name string, attrs ...Attr) {
	j.Emit(ctx, Error, name, attrs...)
}

// Recent returns the ring's current contents in sequence order, oldest
// first. The returned events are immutable.
func (j *Journal) Recent() []*Event {
	if j == nil {
		return nil
	}
	return j.ring.Snapshot(func(a, b *Event) bool { return a.Seq < b.Seq })
}

// renderText formats an event for the Logf tee:
// "info asrankd.listen addr=127.0.0.1:8080 trace=0123…".
func renderText(e *Event) string {
	b := make([]byte, 0, 64)
	b = append(b, e.Sev.String()...)
	b = append(b, ' ')
	b = append(b, e.Name...)
	for _, a := range e.Attrs {
		b = append(b, ' ')
		b = append(b, a.Key...)
		b = append(b, '=')
		if a.IsInt {
			b = appendInt(b, a.Int)
		} else {
			b = append(b, a.Str...)
		}
	}
	if e.Trace != "" {
		b = append(b, " trace="...)
		b = append(b, e.Trace...)
	}
	return string(b)
}
