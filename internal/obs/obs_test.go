package obs

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Idempotent re-registration returns the same metric.
	if r.Counter("test_counter_total", "help") != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Set(10)
	g.Add(2.5)
	g.Dec()
	if got := g.Value(); got != 11.5 {
		t.Fatalf("gauge = %v, want 11.5", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %v, want -3", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	buckets, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if sum != 106 {
		t.Fatalf("sum = %v, want 106", sum)
	}
	// le=1 gets 0.5 and 1 (boundary is inclusive); le=2 gets 1.5;
	// le=5 gets 3; +Inf gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], w)
		}
	}
	if h.Count() != 5 || h.Sum() != 106 {
		t.Errorf("Count/Sum = %d/%v", h.Count(), h.Sum())
	}
}

// TestObserveAllocFreeAfterGC pins that an observation allocates
// nothing, even the first one after two GCs have run: the histogram
// holds no pooled state a collection could drop. Mallocs counts every
// goroutine's allocations, and the runtime's own now and then land
// between the two reads (about 1 window in 5000 with no Observe in it,
// on a 2-core x86-64 box), so the test reads the median of 20 rounds,
// not the worst.
func TestObserveAllocFreeAfterGC(t *testing.T) {
	h := NewRegistry().Histogram("test_gc_seconds", "help", DurationBuckets)
	var ms runtime.MemStats
	mallocs := make([]uint64, 20)
	for i := range mallocs {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		h.Observe(0.003)
		runtime.ReadMemStats(&ms)
		mallocs[i] = ms.Mallocs - before
	}
	slices.Sort(mallocs)
	if mallocs[len(mallocs)/2] != 0 {
		t.Errorf("Observe after GC allocates %v objects over 20 rounds, want a median of 0", mallocs)
	}
}

// BenchmarkHistogramObserve times one Observe alone (serial) and with
// every P observing into the same bucket (parallel). Run it with
// -cpu 1,2,4,8 to see what contention on the shared counters costs.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_observe_seconds", "help", DurationBuckets)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(0.003)
			}
		})
	})
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_vec_total", "help", "kind")
	a, b := v.With("a"), v.With("b")
	a.Inc()
	a.Inc()
	b.Inc()
	if v.With("a") != a {
		t.Error("With not stable")
	}
	if a.Value() != 2 || b.Value() != 1 {
		t.Errorf("a=%d b=%d", a.Value(), b.Value())
	}
	hv := r.HistogramVec("test_vec_seconds", "help", []float64{1}, "op")
	hv.With("x").Observe(0.5)
	if hv.With("x").Count() != 1 {
		t.Error("histogram vec child lost an observation")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_conflict", "help")
	for name, fn := range map[string]func(){
		"kind":   func() { r.Gauge("test_conflict", "help") },
		"labels": func() { r.CounterVec("test_conflict", "help", "x") },
		"name":   func() { r.Counter("bad name!", "help") },
		"le":     func() { r.CounterVec("test_le", "help", "le") },
		"buckets": func() {
			r.Histogram("test_buckets", "help", []float64{2, 1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_arity_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() not a singleton")
	}
}

func TestWriteReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("asrank_demo_runs_total", "help").Add(3)
	r.HistogramVec("asrank_demo_step_duration_seconds", "help", DurationBuckets, "step").
		With("rank").Observe(0.002)
	var sb strings.Builder
	if err := r.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== asrank_demo ==", "asrank_demo_runs_total", "3",
		`asrank_demo_step_duration_seconds{step="rank"}`, "count=1", "2ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeNegativeAndInf(t *testing.T) {
	if formatFloat(math.Inf(1)) != "+Inf" || formatFloat(math.Inf(-1)) != "-Inf" {
		t.Error("Inf formatting wrong")
	}
}
