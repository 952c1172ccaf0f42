package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the span that caused it (-1 for a
// root); Op numbers the workload operation (iteration, epoch, request
// window, chain) the span belongs to, so spans of one operation share
// an identifier.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer was created
	Parent     int
	Op         int
}

// spanRef names a recorded span; the zero value means "no span" and is
// what a nil or paused tracer hands out.
type spanRef int

func (r spanRef) index() int { return int(r) - 1 }

// tracer keeps spans in memory until the pass ends. A nil *tracer
// records nothing, so workloads call it unconditionally. While paused
// it also records nothing: the traced pass pauses it on every second
// operation, and the difference between the two halves is the tracing
// overhead.
type tracer struct {
	t0     time.Time
	paused atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

func (t *tracer) active() bool { return t != nil && !t.paused.Load() }

// start opens a span now.
func (t *tracer) start(name string, parent spanRef, op int) spanRef {
	if !t.active() {
		return 0
	}
	return t.add(name, parent, op, time.Now(), time.Time{})
}

// end closes a span now.
func (t *tracer) end(s spanRef) {
	if t == nil || s == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[s.index()].End = now
	t.mu.Unlock()
}

// add records a span whose times the caller already took.
func (t *tracer) add(name string, parent spanRef, op int, start, end time.Time) spanRef {
	if !t.active() {
		return 0
	}
	sp := span{Name: name, Start: start.Sub(t.t0), Parent: parent.index(), Op: op}
	if !end.IsZero() {
		sp.End = end.Sub(t.t0)
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	ref := spanRef(len(t.spans))
	t.mu.Unlock()
	return ref
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent spanRef, op int, fn func()) {
	s := t.start(name, parent, op)
	fn()
	t.end(s)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Children that overlap each other are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// setStart moves a span's start: the benchmark opens an epoch's ingest
// span before it learns when the sender wrote the first byte.
func (t *tracer) setStart(s spanRef, at time.Time) {
	if t == nil || s == 0 {
		return
	}
	t.mu.Lock()
	t.spans[s.index()].Start = at.Sub(t.t0)
	t.mu.Unlock()
}

// opSums sums, for each operation, the durations (self times when self
// is set) of the spans with the given name, in milliseconds. Operations
// without such a span are absent.
func (t *tracer) opSums(name string, self bool) map[int]float64 {
	sums := map[int]float64{}
	if t == nil {
		return sums
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var selfs []time.Duration
	if self {
		selfs = selfTimes(t.spans)
	}
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d = selfs[i]
		}
		sums[s.Op] += ms(d)
	}
	return sums
}

// perOp is opSums without the operation numbers.
func (t *tracer) perOp(name string, self bool) []float64 {
	sums := t.opSums(name, self)
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// medianMs is the median over operations of the named span's time.
func (t *tracer) medianMs(name string) float64 { return median(t.perOp(name, false)) }

// longestMs is the longest single span with the given name.
func (t *tracer) longestMs(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var longest time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			longest = max(longest, s.End-s.Start)
		}
	}
	return ms(longest)
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every recorded span, with its self time, as a
// Chrome trace. Spans are laid out one lane per nesting depth.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfs := selfTimes(spans)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(spans))
	depth := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: depth[i],
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": us(selfs[i])},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
