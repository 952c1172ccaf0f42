package pool

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/asrank-go/asrank/internal/obs"
)

func TestRangeCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, n)
			Range(workers, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRangeShardIDsAreStable(t *testing.T) {
	n := 100
	workers := 4
	bounds := make([][2]int, NumShards(workers, n))
	Range(workers, n, func(shard, lo, hi int) {
		bounds[shard] = [2]int{lo, hi}
	})
	want := [][2]int{{0, 25}, {25, 50}, {50, 75}, {75, 100}}
	for i, b := range bounds {
		if b != want[i] {
			t.Errorf("shard %d = %v, want %v", i, b, want[i])
		}
	}
}

// TestMetricsRecordedAndRaceWithGather drives both pool schedulers from
// several goroutines — each task writing pool metrics on the hot path —
// while Gather renders the default registry concurrently. This is the
// acceptance gate for the atomic instrumentation: it must pass under
// go test -race (the make check target).
func TestMetricsRecordedAndRaceWithGather(t *testing.T) {
	tasksBefore := poolChunkTasks.Count() + poolRangeTasks.Count()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var hits atomic.Int64
				Chunks(4, 256, 16, func(lo, hi int) {
					hits.Add(int64(hi - lo))
				})
				Range(4, 100, func(_, lo, hi int) {
					hits.Add(int64(hi - lo))
				})
				if hits.Load() != 356 {
					t.Errorf("covered %d indices, want 356", hits.Load())
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := obs.Default().Gather(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := poolChunkTasks.Count() + poolRangeTasks.Count(); got <= tasksBefore {
		t.Errorf("pool task counter did not advance: %d -> %d", tasksBefore, got)
	}
	if errs := obs.Lint(obs.Default().Expose()); len(errs) != 0 {
		t.Fatalf("default registry exposition invalid after pool run: %v", errs)
	}
}

func TestChunksQueueDepthDrains(t *testing.T) {
	Chunks(4, 1024, 32, func(lo, hi int) {})
	Chunks(1, 100, 10, func(lo, hi int) {})
	// All chunks claimed: the gauge must return to its baseline (0 when
	// no other Chunks call is in flight in this test binary).
	if d := poolQueueDepth.Value(); d != 0 {
		t.Fatalf("queue depth = %v after drain, want 0", d)
	}
}

func TestResolve(t *testing.T) {
	if Resolve(5) != 5 {
		t.Error("Resolve(5) != 5")
	}
	if Resolve(0) != runtime.GOMAXPROCS(0) {
		t.Error("Resolve(0) != GOMAXPROCS")
	}
	if NumShards(8, 3) != 3 {
		t.Errorf("NumShards(8,3) = %d", NumShards(8, 3))
	}
}
