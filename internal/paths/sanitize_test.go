package paths

import (
	"reflect"
	"runtime"
	"testing"
)

// TestSanitizeStatsArithmetic pins the bookkeeping fix: every input
// path lands in exactly one of the Kept/discard buckets, and the
// PrependingRemoved / IXPSpliced effect counters describe kept paths
// only — a path discarded as too-short or duplicate after cleaning must
// not inflate them.
func TestSanitizeStatsArithmetic(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 20, 30))     // kept, prepending compressed
	ds.Add(mkPath(10, 20, 20, 30))     // duplicate of the above: effect not counted
	ds.Add(mkPath(10, 10))             // collapses below 2 hops: prepending not counted
	ds.Add(mkPath(10, 555))            // IXP spliced to 1 hop: splice not counted
	ds.Add(mkPath(10, 555, 30))        // kept, IXP spliced
	ds.Add(mkPath(10, 64512, 30))      // reserved ASN
	ds.Add(mkPath(10, 20, 30, 20, 40)) // loop

	out, stats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}})
	want := SanitizeStats{
		Input:             7,
		Kept:              2,
		PrependingRemoved: 1,
		IXPSpliced:        1,
		ReservedDiscarded: 1,
		LoopDiscarded:     1,
		TooShort:          2,
		Duplicates:        1,
	}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	if got := stats.Kept + stats.ReservedDiscarded + stats.LoopDiscarded + stats.TooShort + stats.Duplicates; got != stats.Input {
		t.Errorf("buckets sum to %d, want Input = %d", got, stats.Input)
	}
	if out.NumPaths() != stats.Kept {
		t.Errorf("output has %d paths, stats.Kept = %d", out.NumPaths(), stats.Kept)
	}
}

// TestSanitizeParallelDeterministic checks that the worker-pool size
// (GOMAXPROCS) never changes the output dataset or the stats.
func TestSanitizeParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ds := &Dataset{}
	// A mix big enough that shards straddle every discard class.
	for i := 0; i < 200; i++ {
		base := uint32(1000 + i)
		ds.Add(mkPath(10, base, base+1, base+2))
		ds.Add(mkPath(10, base, base, base+1)) // prepending
		ds.Add(mkPath(10, base, base+1, base+2))
		if i%5 == 0 {
			ds.Add(mkPath(10, 64512, base)) // reserved
			ds.Add(mkPath(10, base, 20, base, 30))
			ds.Add(mkPath(10, 555, base)) // splices too short
		}
	}
	opts := SanitizeOptions{IXPASes: map[uint32]bool{555: true}}
	runtime.GOMAXPROCS(1)
	wantOut, wantStats := Sanitize(ds, opts)
	for _, procs := range []int{2, 7, 32} {
		runtime.GOMAXPROCS(procs)
		out, stats := Sanitize(ds, opts)
		if stats != wantStats {
			t.Fatalf("GOMAXPROCS=%d: stats = %+v, want %+v", procs, stats, wantStats)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("GOMAXPROCS=%d: output dataset differs from sequential run", procs)
		}
	}
}
