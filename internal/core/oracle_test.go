package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// This file is the inferencer the dense one in infer.go replaced, kept
// as its oracle: steps 5–9 probing Result.Rels and a step map per
// question, three map[uint32] probes per triplet, one comparator sort
// of all triples, and a cycle guard that walks the would-be customer's
// cone per query. It is moved here unchanged but for the refused-cycle
// tally the differential tests read, and shares with infer.go only the
// CorpusIndex it reads and the Result it fills.

// oracleInferencer carries the mutable state of steps 5–9, reading the
// corpus only through the index's kept-layer aggregates. Every observed
// AS is interned into a dense index so the cycle-prevention digraph and
// its reachability queries run on ints and slices instead of maps.
type oracleInferencer struct {
	ix     *CorpusIndex
	opts   Options
	res    *Result
	clique map[uint32]bool

	// idx interns every ranked AS; custIdx is the p2c digraph built so
	// far (provider position → customer positions), used for cycle
	// prevention.
	idx     *asindex.Index
	custIdx [][]int32

	// createsCycle's DFS scratch: seen[i] == query marks position i
	// visited by the current query, so no query clears or allocates.
	seen  []uint32
	query uint32
	stack []int32

	// links is the kept layer's link set in sorted order, shared by
	// steps 7 and 8: the index does not change during one inference.
	links []paths.Link

	// providerless flags ASes inferred to peer with the clique rather
	// than buy transit (large content networks): no c2p edge may point
	// at them.
	providerless map[uint32]bool

	// steps records which stage labeled each link of res.Rels; the
	// Result's Labels are written from the two at the end.
	steps map[paths.Link]Step

	// refused tallies the createsCycle calls answered yes, by the step
	// running (stage) when they were asked.
	stage   Step
	refused map[Step]int
}

// newOracleInferencer interns the ranked AS set and prepares the mutable
// inference state.
func newOracleInferencer(ix *CorpusIndex, opts Options, res *Result, clique map[uint32]bool) *oracleInferencer {
	idx := asindex.New(res.Rank)
	return &oracleInferencer{
		ix:           ix,
		opts:         opts,
		res:          res,
		clique:       clique,
		idx:          idx,
		custIdx:      make([][]int32, idx.Len()),
		seen:         make([]uint32, idx.Len()),
		links:        ix.Links(),
		providerless: make(map[uint32]bool),
		steps:        make(map[paths.Link]Step),
		refused:      make(map[Step]int),
	}
}

// detectProviderless flags ASes that peer with the clique instead of
// buying transit from it (large provider-less content networks), the
// failure mode the paper singles out: the top-down pass would otherwise
// label those peerings c2p.
//
// The distinguishing observable: if X were a customer of clique member
// c2, routes toward X from the rest of the clique would cross the
// clique peering mesh and appear as (c1, c2, X) in paths. A peer-of-
// clique X never shows that pattern, because c2 does not export X's
// peer routes to other clique members. So an AS adjacent to two or more
// clique members, never seen behind an intra-clique crossing, and never
// observed providing transit is inferred to be peering with the clique.
func (in *oracleInferencer) detectProviderless() {
	if len(in.res.Clique) < 2 {
		return
	}
	adjClique := make(map[uint32]int)
	for _, l := range in.links {
		a, b := l.A, l.B
		if in.clique[a] && !in.clique[b] {
			adjClique[b]++
		}
		if in.clique[b] && !in.clique[a] {
			adjClique[a]++
		}
	}
	crossed := make(map[uint32]bool) // X observed as (clique, clique, X)
	for t, c := range in.ix.triples {
		if c.kept > 0 && t.Prev != 0 && in.clique[t.Prev] && in.clique[t.Mid] && !in.clique[t.Next] {
			crossed[t.Next] = true
		}
	}
	// A provider-less network peers with most of the clique; a stub
	// multihomed to two or three clique members does not. Require
	// adjacency to at least a third of the clique (minimum 3).
	need := len(in.res.Clique) / 3
	if need < 3 {
		need = 3
	}
	for asn, n := range adjClique {
		if n >= need && !crossed[asn] && in.res.TransitDegree[asn] == 0 {
			in.providerless[asn] = true
		}
	}
	in.res.Providerless = in.res.Providerless[:0]
	for asn := range in.providerless {
		in.res.Providerless = append(in.res.Providerless, asn)
	}
	sort.Slice(in.res.Providerless, func(i, j int) bool {
		return in.res.Providerless[i] < in.res.Providerless[j]
	})
}

// setC2P labels provider→customer, updating provenance and the cycle
// digraph. It assumes the caller checked the link is unlabeled and
// acyclic.
func (in *oracleInferencer) setC2P(provider, customer uint32, step Step) {
	l := paths.NewLink(provider, customer)
	if l.A == provider {
		in.res.Rels[l] = topology.P2C
	} else {
		in.res.Rels[l] = topology.C2P
	}
	in.steps[l] = step
	pi, _ := in.idx.Pos(provider)
	ci, _ := in.idx.Pos(customer)
	in.custIdx[pi] = append(in.custIdx[pi], ci)
}

// labeled reports whether the link between x and y has a relationship.
func (in *oracleInferencer) labeled(x, y uint32) bool {
	_, ok := in.res.Rels[paths.NewLink(x, y)]
	return ok
}

// createsCycle reports whether adding provider→customer would create a
// cycle in the p2c digraph, i.e. whether provider is already reachable
// from customer via customer edges: a DFS from customer that stops at
// the first hit. The digraph hangs below the clique and most customers
// are stubs, so the search usually ends after a node or two.
func (in *oracleInferencer) createsCycle(provider, customer uint32) bool {
	yes := in.reachable(provider, customer)
	if yes {
		in.refused[in.stage]++
	}
	return yes
}

func (in *oracleInferencer) reachable(provider, customer uint32) bool {
	if provider == customer {
		return true
	}
	pi, ok := in.idx.Pos(provider)
	if !ok {
		return false
	}
	ci, ok := in.idx.Pos(customer)
	if !ok {
		return false
	}
	in.query++
	in.seen[ci] = in.query
	in.stack = append(in.stack[:0], ci)
	for len(in.stack) > 0 {
		x := in.stack[len(in.stack)-1]
		in.stack = in.stack[:len(in.stack)-1]
		for _, c := range in.custIdx[x] {
			if c == pi {
				return true
			}
			if in.seen[c] != in.query {
				in.seen[c] = in.query
				in.stack = append(in.stack, c)
			}
		}
	}
	return false
}

// oracleTriplet is one (previous, next) context for a middle AS in some path.
type oracleTriplet struct {
	prev uint32 // 0 when the middle AS is the first hop (the VP)
	next uint32
}

// topDown implements step 5: visiting ASes in rank order, a neighbor
// that follows AS z in a path is inferred to be z's customer when the
// route demonstrably entered z "from above" — z is a clique member, or
// the previous hop is already known to be z's provider or peer — because
// the valley-free property then forces the following hop to be a
// customer. Cycle-creating and clique-demoting inferences are skipped.
// The pass repeats until a fixpoint (bounded by TopDownPasses), since a
// later AS's labels can unlock an earlier AS's triplets.
func (in *oracleInferencer) topDown() {
	// Collect the distinct triplets per middle AS from the kept-layer
	// contexts, keyed by interned position: every ranked AS has a dense
	// slot, so the per-AS lookup in the fixpoint loop is an index, not a
	// map probe. Appending in globally sorted (Mid, Next, Prev) order
	// leaves each per-AS slice already in the deterministic (next, prev)
	// order the fixpoint visits.
	sortedTrips := make([][]oracleTriplet, in.idx.Len())
	for _, t := range sortedTriples(in.ix.triples) {
		zi, ok := in.idx.Pos(t.Mid)
		if !ok {
			continue // not ranked: cannot appear in Rank order below
		}
		sortedTrips[zi] = append(sortedTrips[zi], oracleTriplet{prev: t.Prev, next: t.Next})
	}

	for pass := 0; pass < in.opts.TopDownPasses; pass++ {
		changed := false
		for _, z := range in.res.Rank {
			zi, _ := in.idx.Pos(z)
			for _, t := range sortedTrips[zi] {
				if t.next == z || in.clique[t.next] || in.providerless[t.next] {
					continue
				}
				if in.labeled(z, t.next) {
					continue
				}
				if !in.enteredFromAbove(z, t.prev) {
					continue
				}
				if in.createsCycle(z, t.next) {
					continue
				}
				in.setC2P(z, t.next, StepTopDown)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// enteredFromAbove reports whether a route observed at z arrived from a
// provider or peer of z (or z is a clique member, the top of the
// hierarchy), which forces the next hop to be a customer.
func (in *oracleInferencer) enteredFromAbove(z, prev uint32) bool {
	if in.clique[z] {
		return true
	}
	if prev == 0 {
		return false // z is the VP; no entering hop to reason from
	}
	switch in.res.Rel(prev, z) {
	case topology.P2C: // prev is z's provider
		return true
	case topology.P2P: // prev is z's peer
		return true
	}
	return false
}

// vpPass implements step 6: a vantage point whose feed reaches only a
// small fraction of observed origins is exporting only customer routes
// (it treats the collector as a peer), so every unlabeled first hop of
// its paths is one of its customers.
func (in *oracleInferencer) vpPass() {
	// Distinct origins per VP: counting keys of the (VP, origin)
	// refcount map is order-free (commutative increments).
	vpOriginCount := make(map[uint32]int)
	for k := range in.ix.vpOrigins {
		vpOriginCount[k.VP]++
	}
	// Visiting (VP, first hop) keys in ascending order reproduces the
	// batch order exactly: VPs ascending, hops ascending within a VP.
	threshold := partialFeedOriginFrac * float64(len(in.ix.origins))
	for _, k := range firstHops(in.ix) {
		if float64(vpOriginCount[k.VP]) >= threshold {
			continue // full-ish feed: first hops may be providers/peers
		}
		vp, h := k.VP, k.Other
		if in.labeled(vp, h) || in.clique[h] || in.providerless[h] {
			continue
		}
		if in.createsCycle(vp, h) {
			continue
		}
		in.setC2P(vp, h, StepVP)
	}
}

// stubClique implements step 7: a stub AS (transit degree 0) adjacent to
// a clique member is that member's customer — a stub cannot be peering
// with the top of the hierarchy.
func (in *oracleInferencer) stubClique() {
	for _, l := range in.links {
		if _, done := in.res.Rels[l]; done {
			continue
		}
		a, b := l.A, l.B
		switch {
		case in.providerless[a] || in.providerless[b]:
			// peers of the clique, not stub customers
		case in.clique[a] && !in.clique[b] && in.res.TransitDegree[b] == 0:
			if !in.createsCycle(a, b) {
				in.setC2P(a, b, StepStubClique)
			}
		case in.clique[b] && !in.clique[a] && in.res.TransitDegree[a] == 0:
			if !in.createsCycle(b, a) {
				in.setC2P(b, a, StepStubClique)
			}
		}
	}
}

// fold implements step 8: an unlabeled link whose endpoints' transit
// degrees differ by at least FoldRatio is labeled c2p with the larger
// side as provider — networks of very different size rarely peer. The
// pass is meant for multihomed stubs whose secondary-provider link left
// no top-down evidence; an AS with *many* unlabeled links at this point
// is a peering-heavy network (content at IXPs), not a stub, and is left
// for the p2p default.
func (in *oracleInferencer) fold() {
	// unlabeled counts each AS's links still without a relationship.
	// The counts are kept live — decremented as this pass labels links
	// — so the peeringRich guard sees the current degree, not the
	// stale pre-pass snapshot: a network whose other links fold away
	// earlier in the same pass is a stub, not peering-rich.
	unlabeled := make(map[uint32]int)
	for _, l := range in.links {
		if _, done := in.res.Rels[l]; !done {
			unlabeled[l.A]++
			unlabeled[l.B]++
		}
	}
	const peeringRich = 6 // more unlabeled links than any plausible stub
	for _, l := range in.links {
		if _, done := in.res.Rels[l]; done {
			continue
		}
		ta := float64(in.res.TransitDegree[l.A])
		tb := float64(in.res.TransitDegree[l.B])
		var provider, customer uint32
		switch {
		case ta >= in.opts.FoldRatio*(tb+1) && ta > 0:
			provider, customer = l.A, l.B
		case tb >= in.opts.FoldRatio*(ta+1) && tb > 0:
			provider, customer = l.B, l.A
		default:
			continue
		}
		if in.clique[customer] || in.providerless[customer] {
			continue
		}
		if unlabeled[customer] >= peeringRich {
			continue
		}
		if in.createsCycle(provider, customer) {
			continue
		}
		in.setC2P(provider, customer, StepFold)
		unlabeled[l.A]--
		unlabeled[l.B]--
	}
}

// peerRest implements step 9: everything still unlabeled is peering.
func (in *oracleInferencer) peerRest() {
	for _, l := range in.links {
		if _, done := in.res.Rels[l]; done {
			continue
		}
		in.res.Rels[l] = topology.P2P
		in.steps[l] = StepPeer
	}
}

// firstHops returns the kept layer's (VP, first hop) pairs — its
// contexts whose Mid is the first hop — ascending by VP, then by hop.
func firstHops(ix *CorpusIndex) []VPPair {
	var out []VPPair
	for t, c := range ix.triples {
		if t.Prev == 0 && c.kept > 0 {
			out = append(out, VPPair{VP: t.Mid, Other: t.Next})
		}
	}
	slices.SortFunc(out, func(a, b VPPair) int {
		return cmp.Or(cmp.Compare(a.VP, b.VP), cmp.Compare(a.Other, b.Other))
	})
	return out
}

// sortedTriples returns the kept-layer keys of a triple map in (Mid,
// Next, Prev) order, so map iteration order never reaches inference.
func sortedTriples(m map[Triple]counts) []Triple {
	out := make([]Triple, 0, len(m))
	for t, c := range m {
		if c.kept > 0 {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b Triple) int {
		if a.Mid != b.Mid {
			return cmp.Compare(a.Mid, b.Mid)
		}
		if a.Next != b.Next {
			return cmp.Compare(a.Next, b.Next)
		}
		return cmp.Compare(a.Prev, b.Prev)
	})
	return out
}

// oracleInferIndexed is InferIndexed as it was before the dense
// inferencer — the same Result set-up, the intra-clique labelling over
// the link map and the same stage order — without the spans and
// metrics. It also returns how many c2p inferences each step refused
// because they would have closed a cycle.
func oracleInferIndexed(ix *CorpusIndex, rank, clique []uint32, opts Options) (*Result, map[Step]int) {
	opts = opts.withDefaults()
	res := &Result{
		Rels:          make(map[paths.Link]topology.Relationship),
		Rank:          append([]uint32(nil), rank...),
		Clique:        append([]uint32(nil), clique...),
		TransitDegree: ix.TransitDegrees(),
		Degree:        ix.Degrees(),
	}
	cliqueSet := make(map[uint32]bool, len(res.Clique))
	for _, c := range res.Clique {
		cliqueSet[c] = true
	}
	inf := newOracleInferencer(ix, opts, res, cliqueSet)
	for _, l := range inf.links {
		if cliqueSet[l.A] && cliqueSet[l.B] {
			res.Rels[l] = topology.P2P
			inf.steps[l] = StepClique
		}
	}
	if !opts.DisableProviderless {
		inf.detectProviderless()
	}
	inf.stage = StepTopDown
	inf.topDown()
	inf.stage = StepVP
	inf.vpPass()
	inf.stage = StepStubClique
	inf.stubClique()
	if !opts.DisableFold {
		inf.stage = StepFold
		inf.fold()
	}
	inf.peerRest()
	for _, l := range inf.links {
		if rel, ok := res.Rels[l]; ok {
			res.Labels = append(res.Labels, Label{Link: l, Rel: rel, Step: inf.steps[l]})
		}
	}
	return res, inf.refused
}
