// Package streamtest is the differential harness that proves the
// streaming engine equal to the batch pipeline: it drives randomized
// announce/withdraw/churn schedules through internal/stream and, at
// every epoch boundary, through a from-scratch batch run over a
// mirrored route table, then asserts the two snapshots are
// bit-identical — every column, the cone slabs, and the serving ETag.
//
// The mirror is maintained independently of the engine (raw wire hops,
// BGP route semantics re-implemented in ~20 lines), so a bug anywhere
// in the incremental path — per-event sanitization, refcounting, the
// dirty-region rule, credit patching, snapshot composition — surfaces
// as a column mismatch, not a silently shared mistake.
package streamtest

import (
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// EquivCheck compares two epoch snapshots for bit-identity: every
// column (relationships, degrees, cone-prefix weights, rank
// permutation, clique, provenance, cone member lists and sizes) plus the serving ETag
// each would carry once built into an API snapshot. It returns nil
// when they are indistinguishable, else an error naming the first
// divergent column. It is the reusable oracle every streaming test —
// differential, fuzz, property — asserts with.
func EquivCheck(inc, batch *warehouse.Snapshot) error {
	cols := []struct {
		name string
		a, b any
	}{
		{"ASNs", inc.ASNs, batch.ASNs},
		{"TransitDegree", inc.TransitDegree, batch.TransitDegree},
		{"Degree", inc.Degree, batch.Degree},
		{"ConePrefixes", inc.ConePrefixes, batch.ConePrefixes},
		{"Rank", inc.Rank(), batch.Rank()},
		{"Clique", inc.Clique, batch.Clique},
		{"PathCount", inc.PathCount, batch.PathCount},
		{"Links", inc.Links, batch.Links},
		{"ConeStart", inc.ConeStart, batch.ConeStart},
		{"ConeMembers", inc.ConeMembers, batch.ConeMembers},
		{"ConeSizes", inc.ConeSizes(), batch.ConeSizes()},
	}
	for _, c := range cols {
		if !reflect.DeepEqual(c.a, c.b) {
			return fmt.Errorf("streamtest: %s diverges between incremental and batch snapshots", c.name)
		}
	}
	if a, b := apiserver.BuildSnapshot(inc).ETag(), apiserver.BuildSnapshot(batch).ETag(); a != b {
		return fmt.Errorf("streamtest: serving ETag diverges: incremental %s, batch %s", a, b)
	}
	return nil
}

// RouteKey identifies one vantage point's route — the mirror's and the
// engine's shared unit of announce/withdraw semantics.
type RouteKey struct {
	Collector string
	VP        uint32
	Prefix    netip.Prefix
}

// Event is one route event in a schedule.
type Event struct {
	Withdraw bool
	Key      RouteKey
	ASNs     []uint32 // raw wire hops; nil for a withdraw
}

// Schedule is a deterministic sequence of churn epochs derived from a
// simulated collection: epoch 0 announces the base table, later epochs
// apply Churn mutations each.
type Schedule struct {
	Seed   int64
	Epochs [][]Event
}

// route is the generator's view of one route slot's current state.
type route struct {
	key       RouteKey
	asns      []uint32
	announced bool
}

// NewSchedule derives a deterministic churn schedule from a base
// corpus (as a simulator run produces: ASNs[0] is the announcing VP).
// Epoch 0 announces every base route; each of the following epochs-1
// epochs applies churn random mutations drawn from the full event mix:
// withdrawals, re-announcements, reroutes (hop inserted or spliced
// out), new-prefix announcements, cross-VP duplicate announcements,
// garbage paths a sanitizer must discard, and sanitize-neutral
// prepending no-ops.
func NewSchedule(seed int64, base *paths.Dataset, epochs, churn int) *Schedule {
	rng := stats.NewRNG(seed)
	sched := &Schedule{Seed: seed}

	var routes []*route
	slot := make(map[RouteKey]*route)
	vps := make([]uint32, 0, 8)
	seenVP := make(map[uint32]bool)

	base0 := make([]Event, 0, len(base.Paths))
	for _, p := range base.Paths {
		if len(p.ASNs) == 0 {
			continue
		}
		k := RouteKey{Collector: p.Collector, VP: p.ASNs[0], Prefix: p.Prefix}
		if !seenVP[k.VP] {
			seenVP[k.VP] = true
			vps = append(vps, k.VP)
		}
		if _, dup := slot[k]; dup {
			continue // one base route per slot; churn adds the rest
		}
		r := &route{key: k, asns: append([]uint32(nil), p.ASNs...), announced: true}
		slot[k] = r
		routes = append(routes, r)
		base0 = append(base0, Event{Key: k, ASNs: r.asns})
	}
	sched.Epochs = append(sched.Epochs, base0)

	pick := func(announced bool) *route {
		// Bounded rejection sampling keeps the draw deterministic and
		// cheap; the fallback scan guarantees progress.
		for try := 0; try < 16; try++ {
			r := routes[rng.Intn(len(routes))]
			if r.announced == announced {
				return r
			}
		}
		for _, r := range routes {
			if r.announced == announced {
				return r
			}
		}
		return nil
	}

	nextPrefix := 0
	synthPrefix := func() netip.Prefix {
		nextPrefix++
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(nextPrefix >> 8), byte(nextPrefix), 0}), 24)
	}

	for ep := 1; ep < epochs; ep++ {
		var evs []Event
		for m := 0; m < churn; m++ {
			switch rng.Intn(7) {
			case 0: // withdraw
				if r := pick(true); r != nil {
					r.announced = false
					evs = append(evs, Event{Withdraw: true, Key: r.key})
				}
			case 1: // re-announce a withdrawn route
				if r := pick(false); r != nil {
					r.announced = true
					evs = append(evs, Event{Key: r.key, ASNs: r.asns})
				}
			case 2: // reroute: insert a detour hop or splice one out
				if r := pick(true); r != nil {
					asns := append([]uint32(nil), r.asns...)
					if len(asns) > 3 && rng.Bool(0.5) {
						i := 1 + rng.Intn(len(asns)-2)
						asns = append(asns[:i], asns[i+1:]...)
					} else {
						i := 1 + rng.Intn(len(asns))
						detour := uint32(3_000_000 + rng.Intn(512))
						asns = append(asns[:i:i], append([]uint32{detour}, asns[i:]...)...)
					}
					r.asns = asns
					evs = append(evs, Event{Key: r.key, ASNs: asns})
				}
			case 3: // new prefix from an existing route's path
				if r := pick(true); r != nil {
					k := RouteKey{Collector: r.key.Collector, VP: r.key.VP, Prefix: synthPrefix()}
					nr := &route{key: k, asns: r.asns, announced: true}
					slot[k] = nr
					routes = append(routes, nr)
					evs = append(evs, Event{Key: k, ASNs: nr.asns})
				}
			case 4: // duplicate: another VP announces an identical row
				if r := pick(true); r != nil && len(vps) > 1 {
					vp := vps[rng.Intn(len(vps))]
					if vp == r.key.VP {
						break
					}
					k := RouteKey{Collector: r.key.Collector, VP: vp, Prefix: r.key.Prefix}
					nr, ok := slot[k]
					if !ok {
						nr = &route{key: k}
						slot[k] = nr
						routes = append(routes, nr)
					}
					nr.asns = r.asns
					nr.announced = true
					evs = append(evs, Event{Key: k, ASNs: r.asns})
				}
			case 5: // garbage: a reserved-ASN path sanitization must drop
				if r := pick(true); r != nil {
					asns := append([]uint32(nil), r.asns...)
					i := 1 + rng.Intn(len(asns))
					asns = append(asns[:i:i], append([]uint32{64512}, asns[i:]...)...)
					evs = append(evs, Event{Key: r.key, ASNs: asns})
					// The slot now holds a dropped route: withdraw-equivalent.
					r.announced = false
				}
			case 6: // prepending no-op: same route, padded hops
				if r := pick(true); r != nil {
					asns := append([]uint32(nil), r.asns...)
					origin := asns[len(asns)-1]
					for reps := 1 + rng.Intn(3); reps > 0; reps-- {
						asns = append(asns, origin)
					}
					evs = append(evs, Event{Key: r.key, ASNs: asns})
				}
			}
		}
		sched.Epochs = append(sched.Epochs, evs)
	}
	return sched
}

// Mirror is the harness's independent route table: raw wire hops under
// plain BGP semantics, no sharing with the engine's internal state.
type Mirror map[RouteKey][]uint32

// Apply folds one event.
func (m Mirror) Apply(ev Event) {
	if ev.Withdraw {
		delete(m, ev.Key)
		return
	}
	m[ev.Key] = ev.ASNs
}

// Dataset materializes the mirror as a raw batch corpus in
// deterministic (collector, vp, prefix) order, prefixes compared by
// their route keys (paths.PrefixKey.Route): numerically, and two
// distinct routes never equal.
func (m Mirror) Dataset() *paths.Dataset {
	keys := make([]RouteKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b RouteKey) int {
		return cmp.Or(strings.Compare(a.Collector, b.Collector), cmp.Compare(a.VP, b.VP),
			paths.FlatPrefix(a.Prefix).Route(a.Prefix).Compare(paths.FlatPrefix(b.Prefix).Route(b.Prefix)))
	})
	ds := &paths.Dataset{}
	for _, k := range keys {
		ds.Add(paths.Path{Collector: k.Collector, Prefix: k.Prefix, ASNs: m[k]})
	}
	return ds
}

// BatchReference runs the full batch pipeline — sanitize, the 11-step
// inference, cone crediting, snapshot composition — over the mirrored
// route table. This is the ground truth every streaming epoch is
// compared against. No engine option bears on what is computed; opts
// is taken so the reference is called like the engine it checks.
func BatchReference(m Mirror, opts stream.Options) *warehouse.Snapshot {
	res := core.Infer(m.Dataset(), core.Options{Sanitize: true})
	return warehouse.FromResult(res)
}

// applyBoth folds one event into the engine and into the mirror.
func applyBoth(eng *stream.Engine, m Mirror, ev Event) {
	m.Apply(ev)
	if ev.Withdraw {
		eng.Withdraw(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix)
	} else {
		eng.Announce(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix, ev.ASNs)
	}
}

// RunScheduleOn drives one schedule through eng and, at every epoch
// boundary, through the batch reference, asserting equivalence with
// EquivCheck. It returns the per-epoch serving ETags and the engine's
// final stats; a non-nil error names the first divergent epoch and
// column. The engine is the caller's, so tests can inspect the state
// the differential run leaves behind (commit reports, stats) or go on
// driving it afterwards.
func RunScheduleOn(ctx context.Context, eng *stream.Engine, sched *Schedule) ([]string, stream.Stats, error) {
	mirror := make(Mirror)
	etags := make([]string, 0, len(sched.Epochs))
	for ep, evs := range sched.Epochs {
		for _, ev := range evs {
			applyBoth(eng, mirror, ev)
		}
		inc := eng.Commit(ctx)
		batch := BatchReference(mirror, stream.Options{})
		if err := EquivCheck(inc, batch); err != nil {
			return etags, eng.Stats(), fmt.Errorf("epoch %d (seed %d): %w", ep, sched.Seed, err)
		}
		etags = append(etags, apiserver.BuildSnapshot(inc).ETag())
	}
	return etags, eng.Stats(), nil
}
