// Package baseline reimplements the prior relationship-inference
// algorithms the paper compares against:
//
//   - Gao (2001): degree-based uphill/downhill voting with sibling and
//     peering heuristics.
//   - Xia–Gao (2004): valley-free propagation seeded from partial
//     ground truth.
//   - UCLA (Oliveira et al., 2010): clique-anchored path splitting.
//
// All three return relationships in the same canonical orientation as
// core.Infer, so the validation harness can score them identically.
// Sibling (s2s) inferences, which our ground-truth model does not
// contain, are mapped to p2p.
package baseline

import (
	"sort"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// GaoOptions tunes the Gao (2001) heuristics.
type GaoOptions struct {
	// PeeringDegreeRatio R: neighbors of a path's top provider whose
	// degree ratio is below R may be inferred as peers (default 60, the
	// paper's value).
	PeeringDegreeRatio float64
}

// siblingRatio is Gao's L: links with transit evidence in both
// directions and a vote ratio of at most L are siblings (1: equal votes).
const siblingRatio = 1

func (o GaoOptions) withDefaults() GaoOptions {
	if o.PeeringDegreeRatio <= 0 {
		o.PeeringDegreeRatio = 60
	}
	return o
}

// Gao implements Gao's 2001 algorithm ("On inferring autonomous system
// relationships in the Internet"): each path is split at its
// highest-degree AS (the top provider); hops before it climb, hops
// after it descend. Votes are tallied per link, two-way transit
// evidence yields siblings, and a final pass marks peering candidates
// adjacent to the top provider.
func Gao(ds *paths.Dataset, opts GaoOptions) map[paths.Link]topology.Relationship {
	opts = opts.withDefaults()
	degree := ds.Degrees()

	// transit[{u,v}] counts paths giving transit evidence "u is provider
	// of v", keyed by the ordered pair packed as Link plus direction.
	type dir struct {
		provider, customer uint32
	}
	transit := make(map[dir]int)

	topOf := func(asns []uint32) int {
		best, bestDeg := 0, -1
		for i, a := range asns {
			if degree[a] > bestDeg {
				best, bestDeg = i, degree[a]
			}
		}
		return best
	}

	for _, p := range ds.Paths {
		j := topOf(p.ASNs)
		for i := 0; i+1 < len(p.ASNs); i++ {
			if i < j {
				// climbing: the next hop provides transit to this one
				transit[dir{p.ASNs[i+1], p.ASNs[i]}]++
			} else {
				// descending
				transit[dir{p.ASNs[i], p.ASNs[i+1]}]++
			}
		}
	}

	out := make(map[paths.Link]topology.Relationship)
	setP2C := func(provider, customer uint32) {
		l := paths.NewLink(provider, customer)
		if l.A == provider {
			out[l] = topology.P2C
		} else {
			out[l] = topology.C2P
		}
	}
	for l := range ds.Links() {
		ab := transit[dir{l.A, l.B}]
		ba := transit[dir{l.B, l.A}]
		switch {
		case ab > 0 && ba > 0:
			hi, lo := float64(ab), float64(ba)
			if lo > hi {
				hi, lo = lo, hi
			}
			if hi <= siblingRatio*lo {
				out[l] = topology.P2P // sibling, mapped to p2p
			} else if ab > ba {
				setP2C(l.A, l.B)
			} else {
				setP2C(l.B, l.A)
			}
		case ab > 0:
			setP2C(l.A, l.B)
		case ba > 0:
			setP2C(l.B, l.A)
		default:
			out[l] = topology.P2P
		}
	}

	// Peering pass: links adjacent to a path's top provider with similar
	// degrees and only one-directional transit evidence become p2p.
	for _, p := range ds.Paths {
		j := topOf(p.ASNs)
		for _, k := range []int{j - 1, j} {
			if k < 0 || k+1 >= len(p.ASNs) {
				continue
			}
			u, v := p.ASNs[k], p.ASNs[k+1]
			if transit[dir{u, v}] > 0 && transit[dir{v, u}] > 0 {
				continue // two-way evidence already handled
			}
			du, dv := float64(degree[u]), float64(degree[v])
			if du == 0 || dv == 0 {
				continue
			}
			ratio := du / dv
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio < opts.PeeringDegreeRatio {
				out[paths.NewLink(u, v)] = topology.P2P
			}
		}
	}
	return out
}

// topDegreeASes returns the n highest node-degree ASes.
func topDegreeASes(ds *paths.Dataset, n int) []uint32 {
	degree := ds.Degrees()
	asns := make([]uint32, 0, len(degree))
	for a := range degree {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool {
		if degree[asns[i]] != degree[asns[j]] {
			return degree[asns[i]] > degree[asns[j]]
		}
		return asns[i] < asns[j]
	})
	if n > len(asns) {
		n = len(asns)
	}
	return asns[:n]
}
