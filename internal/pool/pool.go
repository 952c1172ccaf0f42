// Package pool provides the bounded worker pool the parallel engines
// share: fan a contiguous index range out over a fixed number of
// goroutines with deterministic shard boundaries, so per-shard results
// can be merged in a fixed order regardless of scheduling.
//
// Every task execution is instrumented into the default obs registry:
// asrank_pool_tasks_total (by scheduling mode), asrank_pool_steals_total
// (chunks a worker claimed beyond its first), asrank_pool_queue_depth
// (unclaimed chunks across running Chunks calls, approximate when calls
// overlap), and asrank_pool_task_duration_seconds, whose _sum is total
// worker-busy time.
//
// The Ctx variants additionally carry a context into each task: when it
// holds a trace span, every shard or chunk executes under a child
// "pool.task" span started inside the worker goroutine, so trace
// viewers show fan-out as flow arrows from the submitting span to the
// worker tracks. Without a span in the context the only extra cost is
// one ctx.Value probe per task.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

var (
	poolTasks = obs.Default().CounterVec("asrank_pool_tasks_total",
		"Tasks executed by the worker pool, by scheduling mode.", "mode")
	poolRangeTasks = poolTasks.With("range")
	poolChunkTasks = poolTasks.With("chunks")
	poolSteals     = obs.Default().Counter("asrank_pool_steals_total",
		"Chunks a worker claimed beyond its first — work moved between workers by the stealing scheduler.")
	poolQueueDepth = obs.Default().Gauge("asrank_pool_queue_depth",
		"Chunks not yet claimed across currently running Chunks calls.")
	poolBusy = obs.Default().Histogram("asrank_pool_task_duration_seconds",
		"Wall time spent inside one pool task (shard or chunk); the _sum is total worker-busy seconds.",
		obs.DurationBuckets)
)

// Resolve normalizes a Workers option: values <= 0 select
// runtime.GOMAXPROCS(0).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Range splits [0, n) into at most `workers` contiguous shards and runs
// fn(shard, lo, hi) for each, concurrently when workers > 1. Shard
// boundaries depend only on (workers, n), so shard indices are stable
// inputs for deterministic merges. It blocks until every shard is done.
func Range(workers, n int, fn func(shard, lo, hi int)) {
	RangeCtx(context.Background(), workers, n,
		func(_ context.Context, shard, lo, hi int) { fn(shard, lo, hi) })
}

// RangeCtx is Range with a context threaded into each shard. When ctx
// carries a trace span, each shard runs under a child "pool.task" span
// (mode/shard/lo/hi attributes) started on the worker goroutine, and
// the shard context carries that span so nested instrumentation parents
// correctly across the goroutine hop.
func RangeCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, shard, lo, hi int)) {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	run := func(shard, lo, hi int) {
		tctx, ph := trace.StartPhase(ctx, "pool.task")
		if span := ph.Span; span != nil {
			span.SetAttr("mode", "range")
			span.SetAttrInt("shard", int64(shard))
			span.SetAttrInt("lo", int64(lo))
			span.SetAttrInt("hi", int64(hi))
		}
		fn(tctx, shard, lo, hi)
		ph.End(poolBusy, nil)
		poolRangeTasks.Inc()
	}
	if workers <= 1 {
		if n > 0 {
			run(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			run(shard, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// Chunks runs fn over [0, n) in fixed-size chunks handed to workers via
// work stealing, for phases whose per-index cost is skewed (a few huge
// cones among many tiny ones) and whose writes are disjoint, so chunk
// assignment order does not matter.
func Chunks(workers, n, chunk int, fn func(lo, hi int)) {
	ChunksCtx(context.Background(), workers, n, chunk,
		func(_ context.Context, lo, hi int) { fn(lo, hi) })
}

// ChunksCtx is Chunks with a context threaded into each chunk. When ctx
// carries a trace span, each chunk runs under a child "pool.task" span
// (mode/lo/hi attributes) started on the claiming worker's goroutine.
func ChunksCtx(ctx context.Context, workers, n, chunk int, fn func(ctx context.Context, lo, hi int)) {
	workers = Resolve(workers)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (n + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	run := func(lo, hi int) {
		tctx, ph := trace.StartPhase(ctx, "pool.task")
		if span := ph.Span; span != nil {
			span.SetAttr("mode", "chunks")
			span.SetAttrInt("lo", int64(lo))
			span.SetAttrInt("hi", int64(hi))
		}
		fn(tctx, lo, hi)
		ph.End(poolBusy, nil)
	}
	if workers <= 1 {
		if n > 0 {
			run(0, n)
			poolChunkTasks.Inc()
		}
		return
	}
	poolQueueDepth.Add(float64(nchunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			executed := 0
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					break
				}
				poolQueueDepth.Dec()
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				run(lo, hi)
				executed++
			}
			poolChunkTasks.Add(uint64(executed))
			if executed > 1 {
				poolSteals.Add(uint64(executed - 1))
			}
		}()
	}
	wg.Wait()
}

// NumShards returns how many non-empty shards Range will produce for
// (workers, n) — the length callers should allocate for per-shard
// accumulators.
func NumShards(workers, n int) int {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		return 0
	}
	return workers
}
