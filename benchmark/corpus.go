package main

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/streamtest"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

const (
	// numVPs is the vantage-point count of every workload.
	numVPs = 12
	// partialVPs of them export only their own and their customers'
	// routes: bgpsim.DefaultOptions' PartialFeedFrac (0.35) of 12,
	// rounded. bgpsim draws each VP's feed type independently, which
	// makes the corpus size swing 2x between seeds (85k–170k paths at
	// 5k ASes); a fixed count keeps every seed's corpus the same shape
	// and guarantees step 6 (partial-feed VPs) always has work.
	partialVPs = 4
	// churnShare is the part of the route table each churn epoch touches.
	churnShare = 0.01
)

// corpusCounts describes a generated corpus in a report.
type corpusCounts struct {
	Paths        int `json:"paths"`
	ASes         int `json:"ases"`
	VisibleLinks int `json:"visibleLinks"`
}

// corpus is one seed's generated input: the ground-truth topology and
// the collection a collector peering with numVPs of its ASes observes.
type corpus struct {
	topo   *topology.Topology
	sim    *bgpsim.Result
	counts corpusCounts
}

// generate builds the seed's topology at the given size and simulates
// its collection. Everything else the workloads feed the program —
// churn schedules, UPDATE streams, request mixes — derives from this
// and the same seed. su, when not nil, takes a calibration sample
// after each of the two long steps.
func generate(seed int64, ases int, su *window) (*corpus, error) {
	p := topology.DefaultParams(seed)
	p.ASes = ases
	topo := topology.Generate(p)
	su.calibrate()

	so := bgpsim.DefaultOptions(seed)
	so.NumVPs = numVPs
	so.PartialFeedFrac = 0 // applied below, to an exact count
	sim, err := bgpsim.Run(topo, so)
	if err != nil {
		return nil, fmt.Errorf("simulate collection: %w", err)
	}
	if len(sim.VPs) != numVPs {
		return nil, fmt.Errorf("simulate collection: %d vantage points, want %d", len(sim.VPs), numVPs)
	}
	su.calibrate()

	// A partial-feed VP treats the collector as a peer: it exports a
	// route only when it learned it from a customer (its next hop is
	// its customer) or originates it.
	rng := rand.New(rand.NewSource(seed))
	sim.PartialVPs = make(map[uint32]bool, partialVPs)
	for _, i := range rng.Perm(numVPs)[:partialVPs] {
		sim.PartialVPs[sim.VPs[i]] = true
	}
	kept := sim.Dataset.Paths[:0]
	for _, p := range sim.Dataset.Paths {
		if sim.PartialVPs[p.VP()] && len(p.ASNs) > 1 && topo.Rel(p.ASNs[0], p.ASNs[1]) != topology.P2C {
			continue
		}
		kept = append(kept, p)
	}
	sim.Dataset.Paths = kept

	return &corpus{topo: topo, sim: sim, counts: corpusCounts{
		Paths:        len(kept),
		ASes:         len(sim.Dataset.ASes()),
		VisibleLinks: len(sim.Dataset.Links()),
	}}, nil
}

// churnSchedule derives the seed's churn schedule over the corpus:
// epoch 0 announces the table, each later epoch mutates churnShare of
// it. Events are in wire form: a speaker always leads the AS path with
// its own ASN, so the cross-VP duplicate announcements NewSchedule
// builds (another VP's row, verbatim) get the announcing VP prepended —
// exactly what collector.Server does to a path that lacks it, applied
// here so that the independent Mirror sees the same rows.
func churnSchedule(c *corpus, seed int64, epochs int) (*streamtest.Schedule, error) {
	churn := max(1, int(churnShare*float64(len(c.sim.Dataset.Paths))))
	sched := streamtest.NewSchedule(seed, c.sim.Dataset, epochs, churn)
	if got, want := len(sched.Epochs[0]), len(c.sim.Dataset.Paths); got != want {
		return nil, fmt.Errorf("schedule: base epoch has %d routes, the corpus %d (duplicate route keys)", got, want)
	}
	for _, evs := range sched.Epochs {
		for i := range evs {
			ev := &evs[i]
			if !ev.Withdraw && len(ev.ASNs) > 0 && ev.ASNs[0] != ev.Key.VP {
				ev.ASNs = append([]uint32{ev.Key.VP}, ev.ASNs...)
			}
		}
	}
	return sched, nil
}

// apply folds one event into a route sink the way a session would.
func apply(eng *stream.Engine, ev streamtest.Event) {
	if ev.Withdraw {
		eng.Withdraw(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix)
	} else {
		eng.Announce(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix, ev.ASNs)
	}
}

// epochSeries drives a stream.Engine directly through n epochs of the
// seed's churn schedule and returns each epoch's snapshot with the ETag
// it serves under — the input of the store and serve workloads. su takes
// a calibration sample every few epochs.
func epochSeries(c *corpus, seed int64, n int, su *window) ([]*warehouse.Snapshot, []string, error) {
	sched, err := churnSchedule(c, seed, n)
	if err != nil {
		return nil, nil, err
	}
	eng := stream.New(stream.Options{})
	snaps := make([]*warehouse.Snapshot, 0, n)
	etags := make([]string, 0, n)
	for i, evs := range sched.Epochs {
		if i%8 == 0 {
			su.calibrate()
		}
		for _, ev := range evs {
			apply(eng, ev)
		}
		snap := eng.Commit(context.Background())
		snaps = append(snaps, snap)
		etags = append(etags, apiserver.BuildSnapshot(snap).ETag())
	}
	return snaps, etags, nil
}
