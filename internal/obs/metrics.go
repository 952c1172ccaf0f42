package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: one atomic counter per
// bucket and an atomic sum, shared by every observer.
type Histogram struct {
	bounds []float64       // upper bounds, strictly ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    Gauge

	// ex holds one exemplar per bucket (len(bounds)+1, last is +Inf),
	// written only by ObserveExemplar. Last write wins: each slot is an
	// atomic pointer swap, so the hot Observe path pays nothing and a
	// traced observation costs one small allocation.
	ex []atomic.Pointer[exemplar]
}

// exemplar pins one traced observation to the bucket it landed in, the
// link from a histogram outlier back to the flight recorder. Published
// whole via atomic pointer; immutable afterwards.
type exemplar struct {
	value float64
	trace string
	when  time.Time
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		ex:     make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v) }

// observe records v and returns the index of the bucket it landed in.
func (h *Histogram) observe(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	return i
}

// ObserveExemplar records one value and pins it, with its trace ID, as
// the exemplar of the bucket it lands in (last write wins). The
// OpenMetrics exposition (negotiated via Accept; classic 0.0.4 output
// cannot carry exemplars) renders it on that bucket's line, so a p99
// outlier links straight to its span in the flight recorder. An empty
// traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID == "" {
		return
	}
	h.ex[i].Store(&exemplar{value: v, trace: traceID, when: time.Now()})
}

// snapshot returns the per-bucket (non-cumulative) counts, the total
// observation count, and the value sum. Concurrent observations may be
// partially included; each bucket count is internally exact.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum float64) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.sum.Value()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	_, count, _ := h.snapshot()
	return count
}

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 {
	_, _, sum := h.snapshot()
	return sum
}

// DurationBuckets is the default bucket layout for *_duration_seconds
// histograms: 100µs to 30s, roughly geometric.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// ExpBuckets returns count upper bounds starting at start, each factor
// times the previous.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
