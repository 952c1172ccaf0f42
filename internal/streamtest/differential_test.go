package streamtest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/topology"
)

// baseCorpus memoizes one simulated collection for all schedules: the
// schedules themselves are what vary (100 independent churn streams),
// not the underlying Internet.
var baseCorpus = sync.OnceValue(func() *paths.Dataset {
	p := topology.DefaultParams(42)
	p.ASes = 120
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(42)
	opts.NumVPs = 5
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		panic(err)
	}
	return sim.Dataset
})

// TestDifferentialStreamVsBatch is the headline proof: 100 randomized
// announce/withdraw/churn schedules, each committed epoch compared
// bit-for-bit (every snapshot column, cone slabs, serving ETag)
// against a from-scratch batch run over an independently mirrored
// route table. Worker counts alternate between 1 and 4 across the
// schedule set. The aggregate assertion proves the incremental path
// actually ran incrementally — over the incremental epochs, far fewer
// paths were walked by the crediting rule than were live — rather than
// silently full-rebuilding its way to equality.
func TestDifferentialStreamVsBatch(t *testing.T) {
	base := baseCorpus()
	var incremental, walked, live, rebuilds atomic.Int64
	for seed := int64(0); seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			workers := 1
			if seed%2 == 1 {
				workers = 4
			}
			sched := NewSchedule(seed, base, 4, 15)
			opts := stream.Options{Workers: workers}
			eng := stream.New(opts)
			_, st, err := RunScheduleOn(context.Background(), eng, sched, opts)
			if err != nil {
				t.Fatal(err)
			}
			rebuilds.Add(int64(st.FullRebuilds))
			for _, rep := range eng.Reports() {
				if rep.Decision == stream.DecisionIncremental {
					incremental.Add(1)
					walked.Add(int64(rep.RecreditedPaths + rep.NewlyCredited))
					live.Add(int64(rep.Entries))
				}
			}
		})
	}
	t.Cleanup(func() {
		if incremental.Load() == 0 {
			t.Error("no schedule ever committed an incremental epoch")
		}
		// Summed over all schedules, not per epoch: on a corpus this
		// small one dirty link can touch most paths of a single epoch.
		if 4*walked.Load() >= live.Load() {
			t.Errorf("incremental epochs walked %d paths of %d live — the incremental path is re-crediting (nearly) everything",
				walked.Load(), live.Load())
		}
		t.Logf("aggregate: %d incremental epochs walked %d of %d live paths; %d full rebuilds across 100 schedules",
			incremental.Load(), walked.Load(), live.Load(), rebuilds.Load())
	})
}

// TestWorkerCountInvariance pins that a schedule's per-epoch serving
// ETags are identical at any worker count: parallelism is a throughput
// knob, never a semantic one.
func TestWorkerCountInvariance(t *testing.T) {
	sched := NewSchedule(7, baseCorpus(), 5, 20)
	var ref []string
	for _, workers := range []int{1, 2, 8} {
		etags, _, err := RunSchedule(context.Background(), sched, stream.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = etags
			continue
		}
		for i := range ref {
			if etags[i] != ref[i] {
				t.Fatalf("workers=%d epoch %d: ETag %s, want %s", workers, i, etags[i], ref[i])
			}
		}
	}
}

// TestCliqueChurnForcesRebuild drives a schedule that withdraws the
// entire table mid-run, forcing the clique to change and the engine
// through its full-rebuild (dirty region = everything) path — then
// re-announces and checks equivalence holds on the other side.
func TestCliqueChurnForcesRebuild(t *testing.T) {
	base := baseCorpus()
	sched := NewSchedule(3, base, 2, 10)

	// Splice in a teardown epoch (withdraw every base route) and a
	// full re-announce epoch after it.
	var teardown, restore []Event
	for _, ev := range sched.Epochs[0] {
		teardown = append(teardown, Event{Withdraw: true, Key: ev.Key})
		restore = append(restore, ev)
	}
	sched.Epochs = append(sched.Epochs, teardown, restore)

	_, st, err := RunSchedule(context.Background(), sched, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuilds == 0 {
		t.Error("tearing down the whole table never changed the clique — rebuild path untested")
	}
}
