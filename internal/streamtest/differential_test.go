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
	"github.com/asrank-go/asrank/internal/oplog"
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
// hop sequences were walked by the crediting rule than were live —
// rather than silently full-rebuilding its way to equality.
func TestDifferentialStreamVsBatch(t *testing.T) {
	base := baseCorpus()
	var incremental, walked, live, rebuilds atomic.Int64
	for seed := int64(0); seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sched := NewSchedule(seed, base, 4, 15)
			opts := stream.Options{Journal: oplog.New(oplog.Options{RingSize: 64})}
			eng := stream.New(opts)
			_, st, err := RunScheduleOn(context.Background(), eng, sched)
			if err != nil {
				t.Fatal(err)
			}
			rebuilds.Add(int64(st.FullRebuilds))
			for _, rep := range journaledReports(t, opts.Journal) {
				if rep.Decision == stream.DecisionIncremental {
					incremental.Add(1)
					walked.Add(int64(rep.RecreditedPaths + rep.NewlyCredited))
					live.Add(int64(rep.Sequences))
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
			t.Errorf("incremental epochs walked %d sequences of %d live — the incremental path is re-crediting (nearly) everything",
				walked.Load(), live.Load())
		}
		t.Logf("aggregate: %d incremental epochs walked %d of %d live sequences; %d full rebuilds across 100 schedules",
			incremental.Load(), walked.Load(), live.Load(), rebuilds.Load())
	})
}

// cleanedKey names the hop sequence a route's raw hops clean to — the
// unit the engine folds and credits in — and whether sanitize keeps it.
func cleanedKey(asns []uint32) (string, bool) {
	cleaned, keep := paths.SanitizeOne(asns)
	return fmt.Sprint(cleaned), keep
}

// TestLongChurnDifferential is one schedule run long enough for what four
// epochs cannot give: hop sequences that lose their last row and are
// announced again epochs later, and single Announce calls that retire
// one sequence while creating another. An independent count of the
// mirror's distinct cleaned sequences is held against the engine's.
func TestLongChurnDifferential(t *testing.T) {
	sched := NewSchedule(1, baseCorpus(), 48, 30)
	opts := stream.Options{}
	eng, mirror := stream.New(opts), make(Mirror)
	routes := make(map[string]int) // cleaned sequence → mirror routes carrying it
	died := make(map[string]bool)
	var resurrected, swapped int
	for ep, evs := range sched.Epochs {
		for _, ev := range evs {
			was, wasKept := cleanedKey(mirror[ev.Key])
			now, nowKept := cleanedKey(ev.ASNs) // a withdrawal has no hops: not kept
			if !(wasKept && nowKept && was == now) {
				dying := false
				if wasKept {
					if routes[was]--; routes[was] == 0 {
						delete(routes, was)
						died[was], dying = true, true
					}
				}
				if nowKept {
					if routes[now] == 0 {
						if died[now] {
							resurrected++
						}
						if dying {
							swapped++
						}
					}
					routes[now]++
				}
			}
			applyBoth(eng, mirror, ev)
		}
		if err := EquivCheck(eng.Commit(context.Background()), BatchReference(mirror, opts)); err != nil {
			t.Fatalf("epoch %d: %v", ep, err)
		}
		if st := eng.Stats(); st.Sequences != len(routes) {
			t.Fatalf("epoch %d: engine holds %d sequences, the mirror's routes carry %d", ep, st.Sequences, len(routes))
		}
	}
	if resurrected < 5 || swapped < 5 {
		t.Errorf("%d sequences resurrected, %d announcements retired one sequence and created another — the schedule no longer exercises either", resurrected, swapped)
	}
}

// TestRowIdentityIsSanitizes: two routes whose prefixes are distinct
// invalid values and whose hops agree are one corpus row to Sanitize, so
// they are one row to the engine — and still two routes, withdrawn one
// at a time.
func TestRowIdentityIsSanitizes(t *testing.T) {
	route := func(vp uint32, p netip.Prefix, hops ...uint32) Event {
		return Event{Key: RouteKey{Collector: "rc0", VP: vp, Prefix: p}, ASNs: hops}
	}
	bad1 := netip.PrefixFrom(netip.MustParseAddr("192.0.2.1"), 99)
	bad2 := netip.PrefixFrom(netip.MustParseAddr("192.0.2.2"), 99)
	bad6 := netip.PrefixFrom(netip.MustParseAddr("::ffff:192.0.2.1"), 200)
	good := netip.MustParsePrefix("192.0.2.0/24")
	sched := &Schedule{Epochs: [][]Event{
		{
			route(10, bad1, 10, 20, 30), route(10, bad2, 10, 20, 30), route(10, bad6, 10, 20, 30),
			route(10, netip.Prefix{}, 10, 20, 30), route(10, good, 10, 20, 30),
			route(11, bad1, 11, 20, 40), route(11, good, 11, 21, 30),
		},
		{{Withdraw: true, Key: RouteKey{Collector: "rc0", VP: 10, Prefix: bad1}}},
		{{Withdraw: true, Key: RouteKey{Collector: "rc0", VP: 10, Prefix: bad6}}, route(10, bad2, 10, 21, 30)},
		{{Withdraw: true, Key: RouteKey{Collector: "rc0", VP: 10, Prefix: netip.Prefix{}}}},
	}}
	opts := stream.Options{Journal: oplog.New(oplog.Options{})}
	eng := stream.New(opts)
	if _, _, err := RunScheduleOn(context.Background(), eng, sched); err != nil {
		t.Fatal(err)
	}
	var rows, routes []int
	for _, rep := range journaledReports(t, opts.Journal) {
		rows, routes = append(rows, rep.Entries), append(routes, rep.RIBRoutes)
	}
	if want := []int{4, 4, 5, 4}; !slices.Equal(rows, want) {
		t.Errorf("rows per epoch = %v, want %v", rows, want)
	}
	if want := []int{7, 6, 5, 4}; !slices.Equal(routes, want) {
		t.Errorf("routes per epoch = %v, want %v", routes, want)
	}
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
		etags, _, err := RunScheduleOn(context.Background(), stream.New(stream.Options{}), sched)
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
// reference, that a changed clique is handled as a dirty set: the hop
// sequences whose poisoned flag flipped cross the step-4 cut, the ones
// on a relabelled link are re-walked, and every other credit stands.
// Credits are per distinct cleaned hop sequence, so that is the unit
// the report's counts are checked in.
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

		// Every route through out goes down, so each of their sequences
		// loses its last row, and comes back with its first.
		moved := make(map[string]struct{})
		for _, ev := range up {
			if k, keep := cleanedKey(ev.ASNs); keep {
				moved[k] = struct{}{}
			}
		}
		if len(moved) == 0 || len(moved) == len(up) {
			t.Fatalf("%d routes through AS %d carry %d sequences: the fixture no longer tells rows from sequences", len(up), out, len(moved))
		}
		for _, step := range []struct {
			evs                  []Event
			withdrawn, announced int
		}{{down, len(moved), 0}, {up, 0, len(moved)}} {
			snap, rep := commit(step.evs)
			if rep.Reason != stream.ReasonCliqueChurn {
				t.Fatalf("epoch %d: reason %q, clique %v", rep.Epoch, rep.Reason, snap.Clique)
			}
			// Both planted paths flip, one each way: one more path leaves
			// the credit table, and one more enters it, than the events
			// moved themselves.
			if rep.UncreditedPaths != step.withdrawn+1 || rep.NewlyCredited != step.announced+1 {
				t.Errorf("epoch %d: %d uncredited, %d newly credited for %d withdrawn and %d announced sequences — want exactly the two planted flips on top",
					rep.Epoch, rep.UncreditedPaths, rep.NewlyCredited, step.withdrawn, step.announced)
			}
			if walked := rep.RecreditedPaths + rep.NewlyCredited; 4*walked >= rep.Sequences {
				t.Errorf("epoch %d: walked %d of %d live sequences — a one-member clique change re-credited (nearly) everything",
					rep.Epoch, walked, rep.Sequences)
			}
		}
	})
}
