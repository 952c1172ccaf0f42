package core

import (
	"cmp"
	"math"
	"slices"

	"github.com/asrank-go/asrank/internal/paths"
)

// Triple is one consecutive-hop context observed in the corpus: Mid was
// seen between Prev and Next in some path. Prev is 0 when Mid is the
// first hop (the vantage point) — the same sentinel step 5 has always
// used for "no entering hop to reason from". AS 0 is reserved (RFC
// 7607), and the index refuses a path holding it, so the sentinel
// cannot be a hop.
type Triple struct {
	Prev, Mid, Next uint32
}

// VPPair keys the per-vantage-point aggregate of step 6: which origins
// a VP's feed reaches.
type VPPair struct {
	VP, Other uint32
}

// pairKey is an ordered (AS, neighbor) adjacency used to maintain
// distinct-neighbor counts under reference counting.
type pairKey struct {
	x, y uint32
}

// counts is one key's reference count in each layer of the index.
type counts struct {
	ranked, kept int32
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
// A path's hops probe one table, the hop contexts, whose entry holds
// both layers' counts; everything else the layers hold — links, node
// and transit degrees, a VP's first hops — is a projection of the
// distinct contexts, and moves only when a context's count in a layer
// crosses zero. The origin tables are the only other per-path folds.
//
// The kept layer is also held in the orders steps 5–9 read it in: each
// middle AS's kept contexts as packed next<<32|prev keys, and the kept
// links as packed A<<32|B keys, each a keptRun that births and deaths
// append to. InferIndexed settles the runs it reads, so calls on one
// index, readers included, must not overlap.
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
	// Folded per path: the hop contexts by foldHops, the ends by foldEnds.
	triples   map[Triple]counts // hop contexts, incl. Prev==0 VP contexts
	occur     map[uint32]int    // ranked one-hop paths' ASes
	origins   map[uint32]int    // kept paths' origins (step 6 universe)
	vpOrigins map[VPPair]int    // (VP, origin), kept paths of len>=2 only

	// Counted over distinct (VP, origin) pairs: by VP, its distinct
	// origins — step 6's per-VP figure, one entry per VP.
	vpOriginCount map[uint32]int

	// Counted over distinct contexts.
	links       map[paths.Link]counts // contexts whose {Mid, Next} is the link
	deg         map[uint32]int        // distinct ranked neighbors
	transitPair map[pairKey]int       // ranked (Mid, Prev), (Mid, Next) of contexts with Prev != 0
	transitDeg  map[uint32]int        // distinct ranked transit neighbors

	// The kept layer in order, following the same crossings.
	keptContexts map[uint32]*keptRun // by Mid: next<<32|prev of its kept contexts
	keptLinks    keptRun             // A<<32|B of the kept links
}

// keptRun is a set of packed keys held in ascending order lazily: keys
// is the set as the last settle left it, ascending, and born and dead
// are the keys added and taken out since, in arrival order. Churn moves
// a few keys of a run between reads, so a birth or a death is one
// append, and a read sorts the few that arrived and merges them in.
// A key may be in born and dead both, even more than once in each
// (born, dead, born again), but its count — one if keys holds it, plus
// its births, less its deaths — is always 0 or 1.
type keptRun struct {
	keys, born, dead []uint64
}

// add puts a key the run does not hold into it.
func (r *keptRun) add(k uint64) { r.born = append(r.born, k) }

// remove takes a key the run holds out of it.
func (r *keptRun) remove(k uint64) { r.dead = append(r.dead, k) }

// size is the number of keys the run holds.
func (r *keptRun) size() int { return len(r.keys) + len(r.born) - len(r.dead) }

// settle applies the births and deaths since the last settle and
// returns the run, ascending: it sorts them and merges them into keys
// in one pass from the back, in place, then moves the result down to
// the front. The run holds on to the result.
func (r *keptRun) settle() []uint64 {
	if len(r.born)+len(r.dead) == 0 {
		return r.keys
	}
	slices.Sort(r.born)
	slices.Sort(r.dead)
	n := len(r.keys)
	keys := slices.Grow(r.keys, len(r.born))[:n+len(r.born)]
	// w only falls as far as keys and born are read, so it stays above
	// every key of keys not yet read.
	i, j, d, w := n-1, len(r.born)-1, len(r.dead)-1, len(keys)
	for i >= 0 || j >= 0 {
		k := keys[max(i, 0)] // the larger of keys[i] and born[j]
		if i < 0 || j >= 0 && r.born[j] > k {
			k = r.born[j]
		}
		c := 0
		for ; i >= 0 && keys[i] == k; i-- {
			c++
		}
		for ; j >= 0 && r.born[j] == k; j-- {
			c++
		}
		for ; d >= 0 && r.dead[d] >= k; d-- {
			if r.dead[d] > k {
				panic("core: corpus index kept run lost a key it never held")
			}
			c--
		}
		switch c {
		case 0:
		case 1:
			w--
			keys[w] = k
		default:
			panic("core: corpus index kept run counts a key neither once nor not at all")
		}
	}
	if d >= 0 {
		panic("core: corpus index kept run lost a key it never held")
	}
	r.keys = keys[:copy(keys, keys[w:])]
	r.born, r.dead = r.born[:0], r.dead[:0]
	return r.keys
}

// NewCorpusIndex returns an empty index.
func NewCorpusIndex() *CorpusIndex {
	return &CorpusIndex{
		triples:       make(map[Triple]counts),
		occur:         make(map[uint32]int),
		origins:       make(map[uint32]int),
		vpOrigins:     make(map[VPPair]int),
		vpOriginCount: make(map[uint32]int),
		links:         make(map[paths.Link]counts),
		deg:           make(map[uint32]int),
		transitPair:   make(map[pairKey]int),
		transitDeg:    make(map[uint32]int),
		keptContexts:  make(map[uint32]*keptRun),
	}
}

// sizeHops and sizeEnds size the largest table of each folder — the hop
// contexts and the (VP, origin) pairs — for the distinct paths a batch
// fold is about to fold, before it folds any: a RIB's paths add about
// one new context and one pair each (63 467 contexts and 79 125 pairs
// of 79 125 sequences at 10k ASes). They touch disjoint tables, as the
// folders do, and replace tables nothing was folded into. The streaming
// engine's index, whose paths come and go, stays unsized.
func (ix *CorpusIndex) sizeHops(n int) { ix.triples = make(map[Triple]counts, n) }

func (ix *CorpusIndex) sizeEnds(n int) { ix.vpOrigins = make(map[VPPair]int, n) }

// bump adjusts a reference count, deleting the key at zero so key
// presence always means "at least one backing occurrence", and reports
// the key's birth (1), death (-1) or neither (0). The invariant lets an
// add probe its key once: an absent key reads as the zero count it
// stands for, and a birth is the table growing. Negative counts are a
// caller bug: a remove of a path never added.
func bump[K comparable](m map[K]int, k K, d int) int {
	if d > 0 {
		before := len(m)
		m[k] += d
		if len(m) != before {
			return 1
		}
		return 0
	}
	old := m[k]
	n := old + d
	switch {
	case n < 0:
		panic("core: corpus index refcount underflow")
	case n == 0:
		delete(m, k)
	default:
		m[k] = n
	}
	return crossing(old, n)
}

// add adjusts both layers' counts of k, deleting the entry when both
// reach zero, and reports each layer's crossing as bump does.
func add[K comparable](m map[K]counts, k K, dr, dk int) (ranked, kept int) {
	old := m[k]
	r, c := int(old.ranked)+dr, int(old.kept)+dk
	switch {
	case r < 0 || c < 0:
		panic("core: corpus index refcount underflow")
	case r > math.MaxInt32 || c > math.MaxInt32:
		panic("core: corpus index refcount overflow")
	case r == 0 && c == 0:
		delete(m, k)
	default:
		m[k] = counts{ranked: int32(r), kept: int32(c)}
	}
	return crossing(int(old.ranked), r), crossing(int(old.kept), c)
}

// crossing is 1 when a count rose from zero, -1 when it fell to zero,
// and 0 when its key's presence held.
func crossing(before, after int) int {
	switch {
	case before == 0 && after > 0:
		return 1
	case before > 0 && after == 0:
		return -1
	}
	return 0
}

// AddPath folds d occurrences of a sanitized path into (d > 0) or out
// of (d < 0) the ranked layer: d is a multiplicity. The same hops recur
// under many prefixes, so both pipelines fold each distinct hop
// sequence once — +1 when its first row appears, and in the streaming
// engine -1 when its last goes — and reach the key sets a +1 per row
// would build. It panics on a path holding AS 0, as on an underflow.
func (ix *CorpusIndex) AddPath(asns []uint32, d int) { ix.fold(asns, d, 0) }

// AddKept folds d occurrences of a non-poisoned path into (d > 0) or
// out of (d < 0) the kept layer; d is a multiplicity, as in AddPath.
// Poisoned-ness is a per-path function of the clique (see Poisoned):
// the batch pipeline keeps every sequence and removes the poisoned ones
// once it has a clique; when the clique changes, the streaming engine
// removes the paths that became poisoned and adds the ones that stopped
// being so. The layers cross zero independently, so a path may leave
// the ranked layer before it leaves the kept one.
func (ix *CorpusIndex) AddKept(asns []uint32, d int) { ix.fold(asns, 0, d) }

// fold folds dr occurrences of a path into the ranked layer and dk into
// the kept layer: its two ends, then its hop contexts. The halves touch
// disjoint tables, so one path set may be folded by a foldEnds and a
// foldHops running side by side.
func (ix *CorpusIndex) fold(asns []uint32, dr, dk int) {
	if slices.Contains(asns, 0) {
		panic("core: corpus index path holds AS 0")
	}
	ix.foldEnds(asns, dr, dk)
	ix.foldHops(asns, dr, dk)
}

// foldEnds folds what a path's ends say: a one-hop ranked path's AS,
// and a kept path's origin and (VP, origin) pair, whose crossings move
// the VP's distinct-origin count.
func (ix *CorpusIndex) foldEnds(asns []uint32, dr, dk int) {
	if len(asns) == 1 && dr != 0 {
		bump(ix.occur, asns[0], dr)
	}
	if dk != 0 && len(asns) > 0 {
		origin := asns[len(asns)-1]
		bump(ix.origins, origin, dk)
		if len(asns) >= 2 {
			if c := bump(ix.vpOrigins, VPPair{VP: asns[0], Other: origin}, dk); c != 0 {
				bump(ix.vpOriginCount, asns[0], c)
			}
		}
	}
}

// foldHops folds a path's hop contexts: a path of L hops probes its L−1
// contexts, and a context born or gone in a layer moves that layer's
// derived tables.
func (ix *CorpusIndex) foldHops(asns []uint32, dr, dk int) {
	var prev uint32
	for i := 0; i+1 < len(asns); i++ {
		t := Triple{Prev: prev, Mid: asns[i], Next: asns[i+1]}
		prev = t.Mid
		r, k := add(ix.triples, t, dr, dk)
		if r != 0 {
			ix.rankedContext(t, r)
		}
		if k != 0 {
			ix.keptContext(t, k)
		}
	}
}

// keptContext folds the birth (s = 1) or death (s = -1) of a kept
// context into its middle AS's run and into its link, whose own
// crossing moves the kept-link run.
func (ix *CorpusIndex) keptContext(t Triple, s int) {
	key := uint64(t.Next)<<32 | uint64(t.Prev)
	run := ix.keptContexts[t.Mid]
	if s > 0 {
		if run == nil {
			run = &keptRun{}
			ix.keptContexts[t.Mid] = run
		}
		run.add(key)
	} else {
		run.remove(key)
		if run.size() == 0 {
			delete(ix.keptContexts, t.Mid)
		}
	}
	l := paths.NewLink(t.Mid, t.Next)
	switch _, c := add(ix.links, l, 0, s); c {
	case 1:
		ix.keptLinks.add(uint64(l.A)<<32 | uint64(l.B))
	case -1:
		ix.keptLinks.remove(uint64(l.A)<<32 | uint64(l.B))
	}
}

// rankedContext folds the birth (s = 1) or death (s = -1) of a ranked
// context into what it projects to: its link, whose own crossing moves
// the degree of each end, and — when Mid is a transit hop — its two
// transit pairs, whose crossings move Mid's transit degree.
func (ix *CorpusIndex) rankedContext(t Triple, s int) {
	if r, _ := add(ix.links, paths.NewLink(t.Mid, t.Next), s, 0); r != 0 {
		bump(ix.deg, t.Mid, r)
		if t.Next != t.Mid {
			bump(ix.deg, t.Next, r)
		}
	}
	if t.Prev == 0 {
		return
	}
	for _, y := range [2]uint32{t.Prev, t.Next} {
		if c := bump(ix.transitPair, pairKey{t.Mid, y}, s); c != 0 {
			bump(ix.transitDeg, t.Mid, c)
		}
	}
}

// adjacent reports whether a and b are neighbors in some ranked-layer
// path.
func (ix *CorpusIndex) adjacent(a, b uint32) bool {
	return ix.links[paths.NewLink(a, b)].ranked > 0
}

// Links returns the kept layer's link set — the links of
// Dataset.Links over the kept corpus — in paths.SortedLinks order. It
// settles the kept-link run, so it must not overlap another call on ix.
func (ix *CorpusIndex) Links() []paths.Link {
	keys := ix.keptLinks.settle()
	out := make([]paths.Link, len(keys))
	for i, k := range keys {
		out[i] = paths.Link{A: uint32(k >> 32), B: uint32(k)}
	}
	return out
}

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
// layer. An AS of the ranked layer has a neighbor, and so a degree,
// unless every ranked path it is on is one hop long.
func (ix *CorpusIndex) Rank() []uint32 {
	// One key per AS, gathered once: the two degrees complemented and
	// packed, so ascending key order is descending degree order.
	type key struct {
		degs uint64
		asn  uint32
	}
	keys := make([]key, 0, len(ix.deg)+len(ix.occur))
	pack := func(asn uint32, deg int) key {
		return key{degs: uint64(^uint32(ix.transitDeg[asn]))<<32 | uint64(^uint32(deg)), asn: asn}
	}
	for asn, deg := range ix.deg {
		keys = append(keys, pack(asn, deg))
	}
	for asn := range ix.occur {
		if _, ok := ix.deg[asn]; !ok {
			keys = append(keys, pack(asn, 0))
		}
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
