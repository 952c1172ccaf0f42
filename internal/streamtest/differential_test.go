package streamtest

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
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
// route table. The aggregate assertion proves the incremental path
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
			sched := NewSchedule(seed, base, 4, 15)
			opts := stream.Options{}
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
// ETags are identical at any worker-pool size (GOMAXPROCS): parallelism
// is a throughput knob, never a semantic one.
func TestWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sched := NewSchedule(7, baseCorpus(), 5, 20)
	var ref []string
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		etags, _, err := RunSchedule(context.Background(), sched, stream.Options{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", workers, err)
		}
		if ref == nil {
			ref = etags
			continue
		}
		for i := range ref {
			if etags[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d epoch %d: ETag %s, want %s", workers, i, etags[i], ref[i])
			}
		}
	}
}

// TestCliqueChurnRecreditsOnlyTheDirtySet drives the engine through
// clique changes and checks, epoch by epoch against the batch
// reference, that a changed clique is handled as a dirty set: the
// entries whose poisoned flag flipped cross the step-4 cut, the paths
// on a relabelled link are re-walked, and every other credit stands.
//
// Two shapes: tearing the whole table down and restoring it (the
// clique empties and comes back), and swapping a single member — the
// common case at the top of a stable hierarchy — with one planted path
// that the swap un-poisons and one that it poisons.
func TestCliqueChurnRecreditsOnlyTheDirtySet(t *testing.T) {
	// drive returns a commit function over a fresh engine and mirror
	// that have already run a short churn schedule.
	drive := func(t *testing.T) (Mirror, func([]Event) (*warehouse.Snapshot, stream.CommitReport)) {
		eng, mirror := stream.New(stream.Options{}), make(Mirror)
		commit := func(evs []Event) (*warehouse.Snapshot, stream.CommitReport) {
			t.Helper()
			for _, ev := range evs {
				applyBoth(eng, mirror, ev)
			}
			snap, rep := eng.CommitEpoch(context.Background())
			if err := EquivCheck(snap, BatchReference(mirror, stream.Options{})); err != nil {
				t.Fatalf("epoch %d: %v", rep.Epoch, err)
			}
			return snap, rep
		}
		for _, evs := range NewSchedule(3, baseCorpus(), 2, 10).Epochs {
			commit(evs)
		}
		return mirror, commit
	}
	// routesThrough turns the live routes crossing asn (0: every route)
	// into the events that withdraw them and the events that bring them
	// back.
	routesThrough := func(m Mirror, asn uint32) (down, up []Event) {
		for k, asns := range m {
			if asn == 0 || slices.Contains(asns, asn) {
				down = append(down, Event{Withdraw: true, Key: k})
				up = append(up, Event{Key: k, ASNs: asns})
			}
		}
		return down, up
	}

	t.Run("teardown", func(t *testing.T) {
		mirror, commit := drive(t)
		down, up := routesThrough(mirror, 0)
		for _, evs := range [][]Event{down, up} {
			if _, rep := commit(evs); rep.Reason != stream.ReasonCliqueChurn {
				t.Errorf("epoch %d: reason %q — the clique never changed", rep.Epoch, rep.Reason)
			}
		}
	})

	t.Run("single member swap", func(t *testing.T) {
		mirror, commit := drive(t)
		// Learn the swap: without the routes through the clique's first
		// member, exactly one other AS takes its place.
		steady, _ := commit(nil)
		out := steady.Clique[0]
		down, up := routesThrough(mirror, out)
		swapped, _ := commit(down)
		var in, shared uint32
		for _, m := range swapped.Clique {
			if slices.Contains(steady.Clique, m) {
				shared = m
			} else if in != 0 {
				t.Fatalf("clique %v → %v: more than one member changed", steady.Clique, swapped.Clique)
			} else {
				in = m
			}
		}
		if in == 0 || shared == 0 || len(swapped.Clique) != len(steady.Clique) {
			t.Fatalf("clique %v → %v is not a single-member swap", steady.Clique, swapped.Clique)
		}
		// Plant two member–outsider–member sandwiches: one poisoned only
		// while out is a member, one only while in is.
		const vp, outsider, origin = 3_100_000, 3_100_001, 3_100_002
		plant := func(third byte, member uint32) Event {
			return Event{
				Key:  RouteKey{Collector: "planted", VP: vp, Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, third, 0}), 24)},
				ASNs: []uint32{vp, member, outsider, shared, origin},
			}
		}
		commit(append(up, plant(1, out), plant(2, in)))

		for _, step := range []struct {
			evs                  []Event
			withdrawn, announced int
		}{{down, len(down), 0}, {up, 0, len(up)}} {
			snap, rep := commit(step.evs)
			if rep.Reason != stream.ReasonCliqueChurn {
				t.Fatalf("epoch %d: reason %q, clique %v", rep.Epoch, rep.Reason, snap.Clique)
			}
			// Both planted paths flip, one each way: one more path leaves
			// the credit table, and one more enters it, than the events
			// moved themselves.
			if rep.UncreditedPaths != step.withdrawn+1 || rep.NewlyCredited != step.announced+1 {
				t.Errorf("epoch %d: %d uncredited, %d newly credited for %d withdrawals and %d announcements — want exactly the two planted flips on top",
					rep.Epoch, rep.UncreditedPaths, rep.NewlyCredited, step.withdrawn, step.announced)
			}
			if walked := rep.RecreditedPaths + rep.NewlyCredited; 4*walked >= rep.Entries {
				t.Errorf("epoch %d: walked %d of %d live paths — a one-member clique change re-credited (nearly) everything",
					rep.Epoch, walked, rep.Entries)
			}
		}
	})
}
