package obs

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentWritesAndGather hammers every metric type from many
// goroutines while Gather runs concurrently — the contract the atomic
// histogram buckets and counters exist for. Run under -race (make check).
func TestConcurrentWritesAndGather(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_counter_total", "h")
	cv := r.CounterVec("race_vec_total", "h", "k")
	g := r.Gauge("race_gauge", "h")
	h := r.Histogram("race_hist_seconds", "h", DurationBuckets)
	hv := r.HistogramVec("race_hist_vec_seconds", "h", DurationBuckets, "op")

	const (
		writers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []string{"a", "b", "c"}
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With(keys[i%3]).Add(2)
				g.Add(1)
				g.Dec()
				h.Observe(float64(i%100) / 1000)
				hv.With(keys[(i+w)%3]).Observe(0.001)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.Gather(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	if got := h.Count(); got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
	var vecTotal uint64
	for _, k := range []string{"a", "b", "c"} {
		vecTotal += cv.With(k).Value()
	}
	if vecTotal != 2*writers*iters {
		t.Fatalf("vec total = %d, want %d", vecTotal, 2*writers*iters)
	}
	if errs := Lint(r.Expose()); len(errs) != 0 {
		t.Fatalf("post-race exposition invalid: %v", errs)
	}
}
