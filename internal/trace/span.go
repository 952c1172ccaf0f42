package trace

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value pair on a span. Values are strings or int64s;
// everything variable about a unit of work (shard index, VP ASN, link
// counts) belongs here, never in the span name.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsInt selects which value field is live; keeps Attr flat so a
	// span's attribute slice stays pointer-free after the keys.
	IsInt bool
}

// Event is a timestamped point annotation inside a span — a chaos fault
// firing, a retry giving up, a malformed message skipped.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Span is one timed unit of work. Fields are written by the owning
// goroutine between StartSpan and End; End publishes the span, after
// which it is immutable and may be read by exporters on any goroutine.
// All mutating methods are nil-safe so instrumentation never has to
// guard for a disabled tracer.
type Span struct {
	tracer *Tracer

	Name         string
	Trace        TraceID
	ID           uint64
	Parent       uint64 // 0 = root
	RemoteParent bool   // Parent came in over the wire (traceparent)
	Goroutine    uint64
	Start        time.Time
	Dur          time.Duration
	Attrs        []Attr
	Events       []Event

	ended atomic.Bool
}

// SetAttr attaches a string attribute. No-op on a nil or ended span.
func (s *Span) SetAttr(key, val string) {
	if s == nil || s.ended.Load() {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: val})
}

// SetAttrInt attaches an integer attribute. No-op on a nil or ended span.
func (s *Span) SetAttrInt(key string, val int64) {
	if s == nil || s.ended.Load() {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: val, IsInt: true})
}

// AddEvent records a point-in-time event with optional attributes.
// No-op on a nil or ended span.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil || s.ended.Load() {
		return
	}
	s.Events = append(s.Events, Event{Name: name, Time: time.Now(), Attrs: attrs})
}

// String returns a string attribute for AddEvent.
func String(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int returns an integer attribute for AddEvent.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, IsInt: true} }

// End stamps the duration and publishes the span to the flight recorder
// and live captures. Safe to call more than once; only the first End
// publishes. No-op on a nil span.
func (s *Span) End() {
	if s != nil {
		s.endAfter(time.Since(s.Start))
	}
}

// endAfter is End with the duration already measured (Phase.End owns
// the clock read and shares it with its other sinks).
func (s *Span) endAfter(d time.Duration) {
	if !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.Dur = d
	s.tracer.publish(s)
}

// goid returns the current goroutine's ID by parsing the runtime.Stack
// header ("goroutine 123 ["). There is no supported API for this; the
// parse costs roughly a microsecond, which is fine for our coarse spans
// (stages, shards, connections — not per-path work). The ID is only
// ever used as a trace-viewer track label, never for control flow.
func goid() uint64 {
	buf := stackBufPool.Get().(*[64]byte)
	defer stackBufPool.Put(buf)
	n := runtime.Stack(buf[:], false)
	// Header shape: "goroutine 123 [running]:"
	const prefix = "goroutine "
	if n <= len(prefix) {
		return 0
	}
	id, _ := strconv.ParseUint(firstField(string(buf[len(prefix):n])), 10, 64)
	return id
}

func firstField(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

var stackBufPool = sync.Pool{New: func() any { return new([64]byte) }}
