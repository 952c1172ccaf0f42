package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// RuntimeMetrics polls the Go runtime's own telemetry (via the
// runtime/metrics package) into a Registry, so the process's /metrics
// surface answers the first three questions of any incident — is it
// leaking goroutines, is the heap growing, is GC pausing the world —
// without any external agent:
//
//	asrank_runtime_goroutines        gauge, live goroutine count
//	asrank_runtime_heap_bytes        gauge, bytes of live heap objects
//	asrank_runtime_gc_pause_seconds  histogram of GC stop-the-world pauses
//
// GC pauses are translated from the runtime's cumulative histogram:
// each Poll observes the per-bucket count delta at the bucket midpoint,
// so the Registry histogram converges on the runtime's distribution
// without double-counting across polls.
type RuntimeMetrics struct {
	goroutines *Gauge
	heapBytes  *Gauge
	gcPause    *Histogram

	samples   []metrics.Sample // goroutines, heap bytes, GC pauses
	lastPause *metrics.Float64Histogram
}

// runtime/metrics names polled. The GC pause histogram is the one Go
// 1.22 (go.mod's floor) introduced in place of the deprecated
// /gc/pauses:seconds.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
)

// NewRuntimeMetrics registers the runtime metric families in reg and
// returns a poller. Call Poll on whatever cadence the surface needs
// (Start runs a background ticker). Registration is idempotent like
// every obs constructor.
func NewRuntimeMetrics(reg *Registry) *RuntimeMetrics {
	return &RuntimeMetrics{
		goroutines: reg.Gauge("asrank_runtime_goroutines",
			"Goroutines currently live in the process."),
		heapBytes: reg.Gauge("asrank_runtime_heap_bytes",
			"Bytes of live heap objects, as counted by the runtime."),
		gcPause: reg.Histogram("asrank_runtime_gc_pause_seconds",
			"GC stop-the-world pause durations.",
			ExpBuckets(1e-6, 4, 10)),
		samples: []metrics.Sample{{Name: rmGoroutines}, {Name: rmHeapBytes}, {Name: rmGCPauses}},
	}
}

// Poll reads the runtime counters once and updates the registry.
func (rm *RuntimeMetrics) Poll() {
	metrics.Read(rm.samples)
	if v := rm.samples[0].Value; v.Kind() == metrics.KindUint64 {
		rm.goroutines.Set(float64(v.Uint64()))
	}
	if v := rm.samples[1].Value; v.Kind() == metrics.KindUint64 {
		rm.heapBytes.Set(float64(v.Uint64()))
	}
	if v := rm.samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		rm.observePauseDelta(v.Float64Histogram())
	}
}

// observePauseDelta converts the runtime's cumulative pause histogram
// into Observe calls: for each runtime bucket, the count gained since
// the previous poll is observed at the bucket midpoint. Midpoints are
// an approximation, but pauses are reported for their distribution,
// not exact quantiles, and the error is bounded by the runtime's own
// bucket width. Each poll caps the per-bucket replay so a first poll
// against a long-running process cannot stall.
func (rm *RuntimeMetrics) observePauseDelta(h *metrics.Float64Histogram) {
	const maxPerBucket = 1 << 12
	prev := rm.lastPause
	for i, count := range h.Counts {
		var before uint64
		if prev != nil && i < len(prev.Counts) {
			before = prev.Counts[i]
		}
		delta := count - before
		if delta == 0 {
			continue
		}
		if delta > maxPerBucket {
			delta = maxPerBucket
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := bucketMid(lo, hi)
		for n := uint64(0); n < delta; n++ {
			rm.gcPause.Observe(mid)
		}
	}
	// Deep-copy the snapshot; the runtime may reuse the sample's
	// backing arrays on the next Read.
	cp := &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
	rm.lastPause = cp
}

// bucketMid picks a representative value for a runtime histogram
// bucket, tolerating the ±Inf edge buckets.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	default:
		return (lo + hi) / 2
	}
}

// Start polls every interval (default 5s) until stop is closed — the
// hook debug servers use. It returns immediately; the caller owns the
// stop channel's lifetime.
func (rm *RuntimeMetrics) Start(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	rm.Poll()
	//lint:ignore noderivedgo poller lives for the debug server's lifetime and exits on the caller's stop channel
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rm.Poll()
			}
		}
	}()
}
