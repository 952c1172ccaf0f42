package core

import (
	"slices"
)

// CliqueFromIndex implements step 3 over the index's ranked layer,
// honoring a preset Options.Clique (ablations). Exported so the
// streaming engine can recompute the clique per epoch from the same
// aggregates the batch pipeline uses.
func CliqueFromIndex(ix *CorpusIndex, rank []uint32, opts Options) []uint32 {
	opts = opts.withDefaults()
	if opts.Clique != nil {
		out := append([]uint32(nil), opts.Clique...)
		slices.Sort(out)
		return out
	}
	return inferClique(ix, rank, opts)
}

// cliqueExtendLimit is how far down the ranking the greedy clique
// extension looks.
const cliqueExtendLimit = 50

// inferClique implements step 3: a Bron–Kerbosch maximum-clique search
// over the links among the top-ranked ASes, seeded on the #1 AS, then a
// greedy extension further down the ranking requiring full adjacency.
func inferClique(ix *CorpusIndex, rank []uint32, opts Options) []uint32 {
	if len(rank) == 0 {
		return nil
	}
	seedN := opts.CliqueSeedSize
	if seedN > len(rank) {
		seedN = len(rank)
	}
	seeds := rank[:seedN]

	// Adjacency among the seeds; (a, a) is probed too, because an
	// unsanitized corpus can hold a prepended hop.
	adj := make(map[uint32]map[uint32]bool, seedN)
	for _, s := range seeds {
		adj[s] = make(map[uint32]bool)
	}
	for i, a := range seeds {
		for _, b := range seeds[:i+1] {
			if ix.adjacent(a, b) {
				adj[a][b] = true
				adj[b][a] = true
			}
		}
	}

	// Bron–Kerbosch with pivoting over the seed set, keeping the largest
	// clique containing the top-ranked AS (ties: the lexicographically
	// smaller sorted member list; see betterClique).
	top := rank[0]
	var best []uint32
	var maximal func(r, p, x []uint32)
	maximal = func(r, p, x []uint32) {
		if len(p) == 0 && len(x) == 0 {
			if containsASN(r, top) && betterClique(r, best) {
				best = append([]uint32(nil), r...)
				slices.Sort(best)
			}
			return
		}
		// Pivot: the vertex in p∪x with most neighbors in p.
		var pivot uint32
		bestCnt := -1
		for _, cand := range append(append([]uint32(nil), p...), x...) {
			cnt := 0
			for _, v := range p {
				if adj[cand][v] {
					cnt++
				}
			}
			if cnt > bestCnt {
				bestCnt, pivot = cnt, cand
			}
		}
		var candidates []uint32
		for _, v := range p {
			if !adj[pivot][v] {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []uint32
			for _, w := range p {
				if adj[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if adj[v][w] {
					nx = append(nx, w)
				}
			}
			rv := append(append([]uint32(nil), r...), v)
			maximal(rv, np, nx)
			p = removeASN(p, v)
			x = append(x, v)
		}
	}
	maximal(nil, append([]uint32(nil), seeds...), nil)
	if best == nil {
		best = []uint32{top}
	}

	// Greedy extension in rank order. A candidate joins when it is
	// adjacent to every current member — or, once the clique is large
	// enough, to all but one (peering links at the top are not always
	// visible from the VPs), provided the candidate is never observed
	// *behind* an intra-clique crossing: a customer of a clique member
	// shows up as (member, member, candidate) in paths, a true clique
	// member never does.
	for _, cand := range rank[:min(cliqueExtendLimit, len(rank))] {
		if containsASN(best, cand) {
			continue
		}
		adjacent := 0
		for _, m := range best {
			if ix.adjacent(cand, m) {
				adjacent++
			}
		}
		tolerated := len(best) >= 5 && adjacent >= len(best)-1 &&
			!ix.crossedByMembers(cand, best)
		if adjacent == len(best) || tolerated {
			best = append(best, cand)
		}
	}
	slices.Sort(best)
	return best
}

// crossedByMembers reports whether some ranked-layer path shows cand
// directly behind two members, (p, m, cand) — evidence the AS sits below
// the clique. The members come from the ranking, which never holds AS
// 0, so no probe meets a first-hop context.
func (ix *CorpusIndex) crossedByMembers(cand uint32, members []uint32) bool {
	for _, p := range members {
		for _, m := range members {
			if ix.triples[Triple{Prev: p, Mid: m, Next: cand}].ranked > 0 {
				return true
			}
		}
	}
	return false
}

// betterClique reports whether clique a beats b, whose members are
// sorted: the larger wins, a nil b loses, and between equal sizes the
// lexicographically smaller sorted member list wins. Transit degree
// plays no part.
func betterClique(a, b []uint32) bool {
	if b == nil {
		return true
	}
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	return slices.Compare(sorted, b) < 0
}

func containsASN(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeASN(s []uint32, v uint32) []uint32 {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// Poisoned reports whether a path is a clique–nonclique–clique sandwich
// under the given clique set — step 4's per-path predicate, exported so
// the streaming engine can maintain poisoned flags incrementally.
func Poisoned(asns []uint32, clique map[uint32]bool) bool {
	return poisoned(asns, clique)
}

func poisoned(asns []uint32, clique map[uint32]bool) bool {
	// Find a pattern clique, non-clique+, clique.
	lastClique := -1
	sawNonCliqueSince := false
	for i, a := range asns {
		if clique[a] {
			if lastClique >= 0 && sawNonCliqueSince {
				return true
			}
			lastClique = i
			sawNonCliqueSince = false
		} else if lastClique >= 0 {
			sawNonCliqueSince = true
		}
	}
	return false
}
