package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// Per-position flags of the dense inferencer.
const (
	isClique uint8 = 1 << iota
	// isProviderless marks an AS inferred to peer with the clique rather
	// than buy transit (large content networks): no c2p edge may point
	// at it.
	isProviderless
	// isCrossed marks a non-clique AS observed behind an intra-clique
	// crossing, (clique, clique, X) — detectProviderless's evidence that
	// X buys transit.
	isCrossed
)

// neighbor is one entry of an AS's adjacency row.
type neighbor struct {
	asn  uint32
	pos  int32 // the neighbor's position
	link int32 // the link between the row's AS and the neighbor
}

// triplet is one (previous, next) context of a middle AS in some path,
// resolved to positions and links. prev and prevLink are -1 when the
// middle AS is the first hop (the VP).
type triplet struct {
	next, nextLink int32
	prev, prevLink int32
}

// inferencer carries the mutable state of steps 5–9 in a dense id space
// built once per InferIndexed call: an AS is its position in the
// ranking, a link is its index in the kept layer's sorted link list.
// Every question steps 5–9 ask of the labels so far — is this link
// labeled, who is its provider, is this AS in the clique — is then an
// array read; Result.Labels and Result.Rels are written once, at the end.
type inferencer struct {
	ix   *CorpusIndex
	opts Options
	res  *Result

	// Per position (res.Rank order).
	pos   map[uint32]int32 // ASN → position
	flags []uint8
	td    []int32 // transit degree

	// Per link, in paths.SortedLinks order — the order steps 7 and 8
	// visit. prov is the provider's position once a link is c2p, else -1.
	links   []paths.Link
	ends    [][2]int32 // positions of Link.A and Link.B
	rel     []topology.Relationship
	step    []Step
	prov    []int32
	labeled int // links with a relationship so far

	// adj[adjStart[p]:adjStart[p+1]] is position p's adjacency row,
	// ascending neighbor ASN.
	adjStart []int32
	adj      []neighbor

	// trips[tripStart[z]:tripStart[z+1]] are the distinct triplets with
	// middle AS z, in ascending (next ASN, prev ASN) order — the order
	// step 5 visits them, and step 6 a VP's first hops (prev -1).
	tripStart []int32
	trips     []triplet

	// The cycle guard (createsCycle). provs is the p2c digraph so far,
	// customer position → provider positions; anc[i] == stamp marks i an
	// ancestor of ancOf (or ancOf itself), and ancOf is -1 while no
	// ancestor set is held.
	provs [][]int32
	anc   []uint32
	stamp uint32
	ancOf int32
	stack []int32
	guard guardCounts
}

// guardCounts is what the cycle guard did over one inference.
type guardCounts struct {
	queries    int // createsCycle calls
	recomputes int // of which walked a fresh ancestor set
	visited    int // ASes those walks marked
}

// newInferencer builds the dense id space over the index's kept layer.
// It panics when a kept-layer AS is missing from res.Rank.
func newInferencer(ix *CorpusIndex, opts Options, res *Result) *inferencer {
	n := len(res.Rank)
	in := &inferencer{
		ix:    ix,
		opts:  opts,
		res:   res,
		pos:   make(map[uint32]int32, n),
		flags: make([]uint8, n),
		td:    make([]int32, n),
		links: ix.Links(),
		provs: make([][]int32, n),
		anc:   make([]uint32, n),
		ancOf: -1,
	}
	for i, a := range res.Rank {
		in.pos[a] = int32(i)
		in.td[i] = int32(ix.transitDeg[a])
	}
	for _, c := range res.Clique {
		if p, ok := in.pos[c]; ok {
			in.flags[p] |= isClique
		}
	}

	// Links, and the adjacency rows as one counting sort of their
	// endpoints. Scanning the (A, B)-sorted list fills every row in
	// ascending neighbor order: AS x first receives its smaller neighbors
	// from the links (n, x) as A ascends to x, then its larger ones from
	// the run of links (x, m).
	m := len(in.links)
	in.ends = make([][2]int32, m)
	in.rel = make([]topology.Relationship, m)
	in.step = make([]Step, m)
	in.prov = make([]int32, m)
	in.adjStart = make([]int32, n+1)
	for i, l := range in.links {
		a, b := in.at(l.A), in.at(l.B)
		in.ends[i] = [2]int32{a, b}
		in.prov[i] = -1
		in.adjStart[a+1]++
		if a != b {
			in.adjStart[b+1]++
		}
	}
	for p := 0; p < n; p++ {
		in.adjStart[p+1] += in.adjStart[p]
	}
	in.adj = make([]neighbor, in.adjStart[n])
	fill := slices.Clone(in.adjStart[:n])
	for i, l := range in.links {
		a, b := in.ends[i][0], in.ends[i][1]
		in.adj[fill[a]] = neighbor{asn: l.B, pos: b, link: int32(i)}
		fill[a]++
		if a != b {
			in.adj[fill[b]] = neighbor{asn: l.A, pos: a, link: int32(i)}
			fill[b]++
		}
	}

	in.buildTriplets()
	return in
}

// at returns the position of an AS the index holds.
func (in *inferencer) at(asn uint32) int32 {
	p, ok := in.pos[asn]
	if !ok {
		panic(fmt.Sprintf("core: InferIndexed: AS %d is in the index but not in rank", asn))
	}
	return p
}

// row returns position p's adjacency row.
func (in *inferencer) row(p int32) []neighbor {
	return in.adj[in.adjStart[p]:in.adjStart[p+1]]
}

// find returns the entry for neighbor asn in an adjacency row that
// holds it.
func find(row []neighbor, asn uint32) neighbor {
	i, _ := slices.BinarySearchFunc(row, asn, func(e neighbor, asn uint32) int {
		return cmp.Compare(e.asn, asn)
	})
	return row[i]
}

// buildTriplets reads the kept layer's hop contexts run by run in rank
// order — each middle AS's run, settled, is its contexts as ascending
// next<<32|prev keys — and resolves the keys against the middle AS's
// adjacency row: a context's next and previous hops are its neighbors,
// and the sorted run meets the row's next hops in row order. The
// (clique, clique, X) contexts flag X as crossed on the way.
func (in *inferencer) buildTriplets() {
	n := len(in.flags)
	runs := make([][]uint64, n)
	in.tripStart = make([]int32, n+1)
	for z, asn := range in.res.Rank {
		if r := in.ix.keptContexts[asn]; r != nil {
			runs[z] = r.settle()
		}
		in.tripStart[z+1] = in.tripStart[z] + int32(len(runs[z]))
	}

	in.trips = make([]triplet, in.tripStart[n])
	for z, run := range runs {
		row, ri := in.row(int32(z)), 0
		lo := int(in.tripStart[z])
		for j, k := range run {
			next, prev := uint32(k>>32), uint32(k)
			for row[ri].asn != next {
				ri++
			}
			t := triplet{next: row[ri].pos, nextLink: row[ri].link, prev: -1, prevLink: -1}
			if prev != 0 {
				e := find(row, prev)
				t.prev, t.prevLink = e.pos, e.link
				if in.flags[z]&in.flags[t.prev]&isClique != 0 && in.flags[t.next]&isClique == 0 {
					in.flags[t.next] |= isCrossed
				}
			}
			in.trips[lo+j] = t
		}
	}
}

// label records a relationship for an unlabeled link.
func (in *inferencer) label(link int32, rel topology.Relationship, step Step) {
	in.rel[link] = rel
	in.step[link] = step
	in.labeled++
}

// setC2P labels a link provider→customer, updating provenance and the
// cycle digraph. It assumes the caller checked the link is unlabeled
// and acyclic.
func (in *inferencer) setC2P(link, provider, customer int32, step Step) {
	rel := topology.C2P
	if in.ends[link][0] == provider {
		rel = topology.P2C
	}
	in.label(link, rel, step)
	in.prov[link] = provider
	in.addEdge(provider, customer)
}

// addEdge adds provider→customer to the cycle digraph. The edge cannot
// change the provider's own ancestors, so an ancestor set held for that
// provider stays; one held for any other AS may have grown and is
// dropped.
func (in *inferencer) addEdge(provider, customer int32) {
	in.provs[customer] = append(in.provs[customer], provider)
	if in.ancOf != provider {
		in.ancOf = -1
	}
}

// createsCycle reports whether making c a customer of p would close a
// cycle in the p2c digraph, i.e. whether c is already an ancestor of p.
// The question is asked from the provider's side because that side
// holds still: provider sets are small where customer cones are large,
// and steps 5 and 7 ask about one provider many times in a row while
// only that provider gains customers — so p's ancestors are walked once
// (a DFS over provider edges into a stamped set, nothing cleared or
// allocated) and every further query about p is one array read.
//
//asrank:hotpath
func (in *inferencer) createsCycle(p, c int32) bool {
	in.guard.queries++
	if p == c {
		return true
	}
	if in.ancOf != p {
		in.guard.recomputes++
		in.ancOf = p
		in.stamp++
		in.anc[p] = in.stamp
		in.stack = append(in.stack[:0], p)
		for len(in.stack) > 0 {
			x := in.stack[len(in.stack)-1]
			in.stack = in.stack[:len(in.stack)-1]
			in.guard.visited++
			for _, q := range in.provs[x] {
				if in.anc[q] != in.stamp {
					in.anc[q] = in.stamp
					in.stack = append(in.stack, q)
				}
			}
		}
	}
	return in.anc[c] == in.stamp
}

// cliqueP2P labels the links between clique members p2p.
func (in *inferencer) cliqueP2P() {
	for l, e := range in.ends {
		if in.flags[e[0]]&in.flags[e[1]]&isClique != 0 {
			in.label(int32(l), topology.P2P, StepClique)
		}
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
func (in *inferencer) detectProviderless() {
	if len(in.res.Clique) < 2 {
		return
	}
	adjClique := make([]int32, len(in.flags))
	for _, e := range in.ends {
		a, b := e[0], e[1]
		if in.flags[a]&isClique != 0 && in.flags[b]&isClique == 0 {
			adjClique[b]++
		}
		if in.flags[b]&isClique != 0 && in.flags[a]&isClique == 0 {
			adjClique[a]++
		}
	}
	// A provider-less network peers with most of the clique; a stub
	// multihomed to two or three clique members does not. Require
	// adjacency to at least a third of the clique (minimum 3).
	need := int32(max(len(in.res.Clique)/3, 3))
	for p, n := range adjClique {
		if n >= need && in.flags[p]&isCrossed == 0 && in.td[p] == 0 {
			in.flags[p] |= isProviderless
			in.res.Providerless = append(in.res.Providerless, in.res.Rank[p])
		}
	}
	slices.Sort(in.res.Providerless)
}

// topDown implements step 5: visiting ASes in rank order, a neighbor
// that follows AS z in a path is inferred to be z's customer when the
// route demonstrably entered z "from above" — z is a clique member, or
// the previous hop is already known to be z's provider or peer — because
// the valley-free property then forces the following hop to be a
// customer. Cycle-creating and clique-demoting inferences are skipped.
// The pass repeats until a fixpoint (bounded by TopDownPasses), since a
// later AS's labels can unlock an earlier AS's triplets.
func (in *inferencer) topDown() {
	for pass := 0; pass < in.opts.TopDownPasses; pass++ {
		changed := false
		for z := int32(0); z < int32(len(in.flags)); z++ {
			top := in.flags[z]&isClique != 0
			for _, t := range in.trips[in.tripStart[z]:in.tripStart[z+1]] {
				if t.next == z || in.flags[t.next]&(isClique|isProviderless) != 0 {
					continue
				}
				if in.rel[t.nextLink] != topology.None {
					continue
				}
				if !top && !in.enteredFromAbove(t) {
					continue
				}
				if in.createsCycle(z, t.next) {
					continue
				}
				in.setC2P(t.nextLink, z, t.next, StepTopDown)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// enteredFromAbove reports whether the route of context t arrived at
// its (non-clique) middle AS from a provider or peer, which forces the
// next hop to be a customer. A first-hop context has no entering hop to
// reason from.
func (in *inferencer) enteredFromAbove(t triplet) bool {
	if t.prevLink < 0 {
		return false
	}
	return in.rel[t.prevLink] == topology.P2P || in.prov[t.prevLink] == t.prev
}

// partialFeedOriginFrac is the step-6 threshold: a VP whose paths
// reach fewer than this fraction of observed origins is treated as
// exporting only customer routes.
const partialFeedOriginFrac = 0.25

// vpPass implements step 6: a vantage point whose feed reaches only a
// small fraction of observed origins is exporting only customer routes
// (it treats the collector as a peer), so every unlabeled first hop of
// its paths is one of its customers.
func (in *inferencer) vpPass() {
	// Distinct origins per VP: the index keeps the count as (VP,
	// origin) pairs are born and die, one entry per VP.
	vpOriginCount := in.ix.vpOriginCount
	// The VPs are those counts' keys. A VP's first hops are its
	// triplets without a previous hop, which its bucket holds in
	// ascending hop order; visiting VPs in ascending ASN order then
	// reproduces the batch order exactly.
	vps := make([]uint32, 0, len(vpOriginCount))
	for vp := range vpOriginCount {
		vps = append(vps, vp)
	}
	slices.Sort(vps)
	threshold := partialFeedOriginFrac * float64(len(in.ix.origins))
	for _, asn := range vps {
		if float64(vpOriginCount[asn]) >= threshold {
			continue // full-ish feed: first hops may be providers/peers
		}
		vp := in.at(asn)
		for _, t := range in.trips[in.tripStart[vp]:in.tripStart[vp+1]] {
			if t.prev >= 0 || in.rel[t.nextLink] != topology.None || in.flags[t.next]&(isClique|isProviderless) != 0 {
				continue
			}
			if in.createsCycle(vp, t.next) {
				continue
			}
			in.setC2P(t.nextLink, vp, t.next, StepVP)
		}
	}
}

// stubClique implements step 7: a stub AS (transit degree 0) adjacent to
// a clique member is that member's customer — a stub cannot be peering
// with the top of the hierarchy.
func (in *inferencer) stubClique() {
	for l, e := range in.ends {
		if in.rel[l] != topology.None {
			continue
		}
		a, b := e[0], e[1]
		fa, fb := in.flags[a], in.flags[b]
		switch {
		case (fa|fb)&isProviderless != 0:
			// peers of the clique, not stub customers
		case fa&isClique != 0 && fb&isClique == 0 && in.td[b] == 0:
			if !in.createsCycle(a, b) {
				in.setC2P(int32(l), a, b, StepStubClique)
			}
		case fb&isClique != 0 && fa&isClique == 0 && in.td[a] == 0:
			if !in.createsCycle(b, a) {
				in.setC2P(int32(l), b, a, StepStubClique)
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
func (in *inferencer) fold() {
	// unlabeled counts each AS's links still without a relationship.
	// The counts are kept live — decremented as this pass labels links
	// — so the peeringRich guard sees the current degree, not the
	// stale pre-pass snapshot: a network whose other links fold away
	// earlier in the same pass is a stub, not peering-rich.
	unlabeled := make([]int32, len(in.flags))
	for l, e := range in.ends {
		if in.rel[l] == topology.None {
			unlabeled[e[0]]++
			unlabeled[e[1]]++
		}
	}
	const peeringRich = 6 // more unlabeled links than any plausible stub
	for l, e := range in.ends {
		if in.rel[l] != topology.None {
			continue
		}
		ta := float64(in.td[e[0]])
		tb := float64(in.td[e[1]])
		var provider, customer int32
		switch {
		case ta >= in.opts.FoldRatio*(tb+1) && ta > 0:
			provider, customer = e[0], e[1]
		case tb >= in.opts.FoldRatio*(ta+1) && tb > 0:
			provider, customer = e[1], e[0]
		default:
			continue
		}
		if in.flags[customer]&(isClique|isProviderless) != 0 {
			continue
		}
		if unlabeled[customer] >= peeringRich {
			continue
		}
		if in.createsCycle(provider, customer) {
			continue
		}
		in.setC2P(int32(l), provider, customer, StepFold)
		unlabeled[e[0]]--
		unlabeled[e[1]]--
	}
}

// peerRest implements step 9: everything still unlabeled is peering.
func (in *inferencer) peerRest() {
	for l, r := range in.rel {
		if r == topology.None {
			in.label(int32(l), topology.P2P, StepPeer)
		}
	}
}

// materialize writes the labels so far into Result.Labels, in link
// order, and Result.Rels.
func (in *inferencer) materialize() {
	in.res.Rels = make(map[paths.Link]topology.Relationship, in.labeled)
	in.res.Labels = make([]Label, 0, in.labeled)
	for i, l := range in.links {
		if in.rel[i] != topology.None {
			in.res.Rels[l] = in.rel[i]
			in.res.Labels = append(in.res.Labels, Label{Link: l, Rel: in.rel[i], Step: in.step[i]})
		}
	}
}
