package core

import (
	"cmp"
	"slices"

	"github.com/asrank-go/asrank/internal/paths"
)

// Triple is one consecutive-hop context observed in the corpus: Mid was
// seen between Prev and Next in some path. Prev is 0 when Mid is the
// first hop (the vantage point) — the same sentinel step 5 has always
// used for "no entering hop to reason from".
type Triple struct {
	Prev, Mid, Next uint32
}

// VPPair keys the per-vantage-point aggregates of step 6: which origins
// a VP's feed reaches, and which first hops it exits through.
type VPPair struct {
	VP, Other uint32
}

// pairKey is an ordered (AS, neighbor) adjacency used to maintain
// distinct-neighbor counts under reference counting.
type pairKey struct {
	x, y uint32
}

// CorpusIndex holds every corpus-derived aggregate steps 2–9 consume,
// maintained as reference counts so paths can be added and removed in
// any order. The index state is a pure function of the current path
// multiset — adds and removes commute — and inference reads only key
// presence and the derived distinct-neighbor counts, never the counts
// of the raw occurrence maps, so two multisets over the same distinct
// hop sequences are one index to it whatever their multiplicities.
// That is what makes incremental inference provably equal to batch
// (DESIGN.md §15).
//
// The index has two layers mirroring the pipeline's step-4 cut:
//
//   - the ranked layer (AddPath): aggregates over the full sanitized
//     corpus, feeding ranking (step 2) and clique inference (step 3);
//   - the kept layer (AddKept): aggregates over the post-discard corpus
//     (paths not poisoned under the step-3 clique), feeding the
//     intra-clique labeling, provider-less detection, and steps 5–9.
//
// Both pipelines fold ±1 per distinct hop sequence: batch inference
// folds every sequence of a Dataset into both layers as step 1 interns
// it and folds the poisoned ones back out of the kept layer once the
// clique is known (kept = ranked − poisoned); the streaming engine
// calls the same mutators as a sequence gains its first row and loses
// its last. A fold of +1 per row would build the same key sets with
// other counts. Nothing per-row lives here: the kept-row count and the
// prefix counts are the caller's.
type CorpusIndex struct {
	// Ranked layer.
	occur       map[uint32]int  // per-hop AS occurrences (ASes())
	nbrPair     map[pairKey]int // ordered (AS, neighbor) occurrences
	deg         map[uint32]int  // distinct neighbors, derived from nbrPair
	transitPair map[pairKey]int // ordered (mid, neighbor) transit occurrences
	transitDeg  map[uint32]int  // distinct transit neighbors, derived
	preTriples  map[Triple]int  // hop contexts (clique extension evidence)

	// Kept layer.
	links       map[paths.Link]int
	triples     map[Triple]int // hop contexts incl. Prev==0 VP contexts (step 5)
	origins     map[uint32]int // per-path origin occurrences (step 6 universe)
	vpOrigins   map[VPPair]int // (VP, origin), len>=2 paths only
	vpFirstHops map[VPPair]int // (VP, first hop), len>=2 paths only
}

// NewCorpusIndex returns an empty index.
func NewCorpusIndex() *CorpusIndex {
	return &CorpusIndex{
		occur:       make(map[uint32]int),
		nbrPair:     make(map[pairKey]int),
		deg:         make(map[uint32]int),
		transitPair: make(map[pairKey]int),
		transitDeg:  make(map[uint32]int),
		preTriples:  make(map[Triple]int),
		links:       make(map[paths.Link]int),
		triples:     make(map[Triple]int),
		origins:     make(map[uint32]int),
		vpOrigins:   make(map[VPPair]int),
		vpFirstHops: make(map[VPPair]int),
	}
}

// bump adjusts a reference count, deleting the key at zero so key
// presence always means "at least one backing occurrence". That
// invariant is what lets an add probe its key once: an absent key reads
// as the zero count it stands for. Negative counts are a caller bug: a
// remove of a path never added.
func bump[K comparable](m map[K]int, k K, d int) {
	if d > 0 {
		m[k] += d
		return
	}
	n := m[k] + d
	switch {
	case n < 0:
		panic("core: corpus index refcount underflow")
	case n == 0:
		delete(m, k)
	default:
		m[k] = n
	}
}

// bumpPair adjusts an adjacency refcount and folds its 0↔1 transitions
// into the derived distinct-neighbor count of x. An add sees the 0→1
// transition as the table growing, again because presence means a
// positive count.
func bumpPair(pairs map[pairKey]int, counts map[uint32]int, x, y uint32, d int) {
	k := pairKey{x, y}
	if d > 0 {
		before := len(pairs)
		pairs[k] += d
		if len(pairs) != before {
			counts[x]++
		}
		return
	}
	old := pairs[k]
	n := old + d
	switch {
	case n < 0:
		panic("core: corpus index refcount underflow")
	case n == 0:
		delete(pairs, k)
	default:
		pairs[k] = n
	}
	if old > 0 && n == 0 {
		if counts[x] == 1 {
			delete(counts, x)
		} else {
			counts[x]--
		}
	}
}

// AddPath folds d occurrences of a sanitized path into (d > 0) or out
// of (d < 0) the ranked layer: d is a multiplicity. The same hops recur
// under many prefixes, so both pipelines fold each distinct hop
// sequence once — +1 when its first row appears, and in the streaming
// engine -1 when its last goes — and reach the key sets a +1 per row
// would build.
func (ix *CorpusIndex) AddPath(asns []uint32, d int) {
	for _, a := range asns {
		bump(ix.occur, a, d)
	}
	for i := 0; i+1 < len(asns); i++ {
		a, b := asns[i], asns[i+1]
		bumpPair(ix.nbrPair, ix.deg, a, b, d)
		bumpPair(ix.nbrPair, ix.deg, b, a, d)
		var prev uint32
		if i > 0 {
			prev = asns[i-1]
		}
		bump(ix.preTriples, Triple{Prev: prev, Mid: a, Next: b}, d)
	}
	for i := 1; i+1 < len(asns); i++ {
		mid := asns[i]
		bumpPair(ix.transitPair, ix.transitDeg, mid, asns[i-1], d)
		bumpPair(ix.transitPair, ix.transitDeg, mid, asns[i+1], d)
	}
}

// AddKept folds d occurrences of a non-poisoned path into (d > 0) or
// out of (d < 0) the kept layer; d is a multiplicity, as in AddPath.
// Poisoned-ness is a per-path function of the clique (see Poisoned):
// the batch pipeline keeps every sequence and removes the poisoned ones
// once it has a clique; when the clique changes, the streaming engine
// removes the paths that became poisoned and adds the ones that stopped
// being so.
func (ix *CorpusIndex) AddKept(asns []uint32, d int) {
	if len(asns) == 0 {
		return
	}
	bump(ix.origins, asns[len(asns)-1], d)
	if len(asns) >= 2 {
		bump(ix.vpOrigins, VPPair{VP: asns[0], Other: asns[len(asns)-1]}, d)
		bump(ix.vpFirstHops, VPPair{VP: asns[0], Other: asns[1]}, d)
	}
	for i := 0; i+1 < len(asns); i++ {
		bump(ix.links, paths.NewLink(asns[i], asns[i+1]), d)
		var prev uint32
		if i > 0 {
			prev = asns[i-1]
		}
		bump(ix.triples, Triple{Prev: prev, Mid: asns[i], Next: asns[i+1]}, d)
	}
}

// adjacent reports whether a and b are neighbors in some ranked-layer
// path.
func (ix *CorpusIndex) adjacent(a, b uint32) bool {
	_, ok := ix.nbrPair[pairKey{a, b}]
	return ok
}

// Links returns the kept layer's link set, keyed like Dataset.Links.
// The map is shared with the index — callers must not mutate it, and
// must not retain it across further Add calls.
func (ix *CorpusIndex) Links() map[paths.Link]int { return ix.links }

// TransitDegrees returns a copy of the transit-degree metric, equal to
// Dataset.TransitDegrees over the ranked corpus.
func (ix *CorpusIndex) TransitDegrees() map[uint32]int {
	out := make(map[uint32]int, len(ix.transitDeg))
	for a, n := range ix.transitDeg {
		out[a] = n
	}
	return out
}

// Degrees returns a copy of the node-degree metric, equal to
// Dataset.Degrees over the ranked corpus.
func (ix *CorpusIndex) Degrees() map[uint32]int {
	out := make(map[uint32]int, len(ix.deg))
	for a, n := range ix.deg {
		out[a] = n
	}
	return out
}

// Rank orders every observed AS by decreasing transit degree, then
// decreasing node degree, then ascending ASN — step 2 over the ranked
// layer.
func (ix *CorpusIndex) Rank() []uint32 {
	// One key per AS, gathered once: the two degrees complemented and
	// packed, so ascending key order is descending degree order.
	type key struct {
		degs uint64
		asn  uint32
	}
	keys := make([]key, 0, len(ix.occur))
	for asn := range ix.occur {
		degs := uint64(^uint32(ix.transitDeg[asn]))<<32 | uint64(^uint32(ix.deg[asn]))
		keys = append(keys, key{degs: degs, asn: asn})
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.degs != b.degs {
			return cmp.Compare(a.degs, b.degs)
		}
		return cmp.Compare(a.asn, b.asn)
	})
	out := make([]uint32, len(keys))
	for i, k := range keys {
		out[i] = k.asn
	}
	return out
}
