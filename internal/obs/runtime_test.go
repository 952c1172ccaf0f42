package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRuntimeMetricsPoll(t *testing.T) {
	reg := NewRegistry()
	rm := NewRuntimeMetrics(reg)
	// Force a GC so the pause histogram has at least one observation to
	// translate.
	runtime.GC()
	rm.Poll()

	out := reg.Expose()
	for _, want := range []string{
		"asrank_runtime_goroutines",
		"asrank_runtime_heap_bytes",
		"asrank_runtime_gc_pause_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}
	if rm.goroutines.Value() < 1 {
		t.Errorf("goroutine gauge = %v, want >= 1", rm.goroutines.Value())
	}
	if rm.heapBytes.Value() <= 0 {
		t.Errorf("heap gauge = %v, want > 0", rm.heapBytes.Value())
	}
}

func TestRuntimeMetricsPauseDeltaNoDoubleCount(t *testing.T) {
	reg := NewRegistry()
	rm := NewRuntimeMetrics(reg)
	runtime.GC()
	rm.Poll()
	afterFirst := rm.gcPause.Count()
	// No GC between polls: the cumulative histogram is unchanged, so
	// the delta translation must observe nothing new.
	rm.Poll()
	if got := rm.gcPause.Count(); got != afterFirst {
		t.Errorf("idle re-poll grew pause count %d -> %d", afterFirst, got)
	}
	runtime.GC()
	rm.Poll()
	if got := rm.gcPause.Count(); got <= afterFirst {
		t.Errorf("pause count did not grow after GC: %d -> %d", afterFirst, got)
	}
}

func TestRuntimeMetricsStart(t *testing.T) {
	reg := NewRegistry()
	rm := NewRuntimeMetrics(reg)
	stop := make(chan struct{})
	rm.Start(time.Millisecond, stop)
	defer close(stop)
	deadline := time.After(2 * time.Second)
	for rm.goroutines.Value() < 1 {
		select {
		case <-deadline:
			t.Fatal("poller never populated the goroutine gauge")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestBucketMid(t *testing.T) {
	inf := math.Inf
	cases := []struct {
		lo, hi, want float64
	}{
		{1, 3, 2},
		{inf(-1), 4, 4},
		{5, inf(1), 5},
		{inf(-1), inf(1), 0},
	}
	for _, c := range cases {
		if got := bucketMid(c.lo, c.hi); got != c.want {
			t.Errorf("bucketMid(%v, %v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}
