package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
)

// TestIndexIsAFunctionOfThePathMultiset is the property both pipelines
// rest on: whatever order and in whatever multiples paths are added,
// removed, kept, poisoned and kept again, the index ends equal — every
// table, the ranking, the clique — to a fresh index folding +1 per
// unit over the paths that are present and the subset of them that are
// kept. The streaming engine's single commit path uses it at d = ±1;
// the batch fold, one call per distinct hop sequence with the row
// count as d, uses it at d > 1.
func TestIndexIsAFunctionOfThePathMultiset(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ix, pool, units, kept := interleavedIndex(seed)

		fresh := NewCorpusIndex()
		for i, p := range pool {
			for u := 0; u < units[i]; u++ {
				fresh.AddPath(p, 1)
				if kept[i] {
					fresh.AddKept(p, 1)
				}
			}
		}
		if !reflect.DeepEqual(ix, fresh) {
			t.Fatalf("seed %d: index after ±d interleaving differs from a fresh +1 fold:\n got %+v\nwant %+v", seed, ix, fresh)
		}
		rank, want := ix.Rank(), fresh.Rank()
		if !reflect.DeepEqual(rank, want) {
			t.Fatalf("seed %d: Rank() = %v, fresh fold gives %v", seed, rank, want)
		}
		if got, want := CliqueFromIndex(ix, rank, Options{}), CliqueFromIndex(fresh, want, Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: clique = %v, fresh fold gives %v", seed, got, want)
		}
	}
}

// interleavedIndex draws 40 distinct loop-free paths over a small AS
// space, so tables collide and refcounts climb past one, and folds them
// in and out of a fresh index 400 times at random multiplicities. It
// returns the index with what is live in it: each path's units and
// whether they are in the kept layer.
func interleavedIndex(seed int64) (ix *CorpusIndex, pool [][]uint32, units []int, kept []bool) {
	rng := stats.NewRNG(seed)
	pool = make([][]uint32, 0, 40)
	seen := map[string]bool{}
	for len(pool) < cap(pool) {
		perm := rng.Perm(12)[:rng.Range(2, 6)]
		path := make([]uint32, len(perm))
		for i, p := range perm {
			path[i] = uint32(p + 1)
		}
		if key := fmt.Sprint(path); !seen[key] {
			seen[key] = true
			pool = append(pool, path)
		}
	}

	ix = NewCorpusIndex()
	units = make([]int, len(pool)) // copies of the path present
	kept = make([]bool, len(pool)) // whether they are in the kept layer
	for op := 0; op < 400; op++ {
		i := rng.Intn(len(pool))
		switch rng.Intn(3) {
		case 0: // add 1..4 units; an absent path draws its flag
			d := rng.Range(1, 4)
			if units[i] == 0 {
				kept[i] = rng.Bool(0.5)
			}
			ix.AddPath(pool[i], d)
			if kept[i] {
				ix.AddKept(pool[i], d)
			}
			units[i] += d
		case 1: // remove some of the units, or all
			if units[i] == 0 {
				continue
			}
			d := rng.Range(1, units[i])
			if kept[i] {
				ix.AddKept(pool[i], -d)
			}
			ix.AddPath(pool[i], -d)
			units[i] -= d
		case 2: // the clique moved, the path did not: flip every unit
			if kept[i] = !kept[i]; kept[i] {
				ix.AddKept(pool[i], units[i])
			} else {
				ix.AddKept(pool[i], -units[i])
			}
		}
	}
	return ix, pool, units, kept
}

// TestIndexMatchesNaiveRecount holds the mutators to a reference they
// did not build: after the same ±d interleaving every table is compared
// with a recount by plain loops over the live multiset, the two derived
// degree tables with paths.Dataset's own and the link table's key set
// with Dataset.Links'. The fresh index of the test above is folded by
// the mutators under test, so a fault common to add and remove — an add
// that miscounts a key it finds absent, say — would pass there.
func TestIndexMatchesNaiveRecount(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ix, pool, units, kept := interleavedIndex(seed)

		want := NewCorpusIndex()
		var ranked, keptDS paths.Dataset // one row per live unit
		for i, p := range pool {
			n := units[i]
			if n == 0 {
				continue
			}
			for u := 0; u < n; u++ {
				ranked.Add(paths.Path{ASNs: p})
			}
			for j, a := range p {
				want.occur[a] += n
				var prev uint32
				if j > 0 {
					prev = p[j-1]
				}
				if j+1 < len(p) {
					want.nbrPair[pairKey{a, p[j+1]}] += n
					want.nbrPair[pairKey{p[j+1], a}] += n
					want.preTriples[Triple{Prev: prev, Mid: a, Next: p[j+1]}] += n
				}
				if j > 0 && j+1 < len(p) {
					want.transitPair[pairKey{a, p[j-1]}] += n
					want.transitPair[pairKey{a, p[j+1]}] += n
				}
			}
			if !kept[i] {
				continue
			}
			for u := 0; u < n; u++ {
				keptDS.Add(paths.Path{ASNs: p})
			}
			vp, origin := p[0], p[len(p)-1]
			want.origins[origin] += n
			want.vpOrigins[VPPair{VP: vp, Other: origin}] += n
			want.vpFirstHops[VPPair{VP: vp, Other: p[1]}] += n
			for j := 0; j+1 < len(p); j++ {
				var prev uint32
				if j > 0 {
					prev = p[j-1]
				}
				want.links[paths.NewLink(p[j], p[j+1])] += n
				want.triples[Triple{Prev: prev, Mid: p[j], Next: p[j+1]}] += n
			}
		}
		want.deg, want.transitDeg = ranked.Degrees(), ranked.TransitDegrees()

		if !reflect.DeepEqual(ix, want) {
			t.Fatalf("seed %d: index after ±d interleaving differs from the naive recount:\n got %+v\nwant %+v", seed, ix, want)
		}
		got, links := ix.Links(), keptDS.Links()
		if len(got) != len(links) {
			t.Fatalf("seed %d: index holds %d links, Dataset.Links %d", seed, len(got), len(links))
		}
		for l := range got {
			if _, ok := links[l]; !ok {
				t.Fatalf("seed %d: index holds link %v, Dataset.Links does not", seed, l)
			}
		}
	}
}

// TestIndexRefcountUnderflowPanics: taking out what was never put in is
// a caller bug every table reports, whatever else the index holds. The
// one-probe add left the remove path as it was; this pins that it did.
func TestIndexRefcountUnderflowPanics(t *testing.T) {
	const absent = 99 // the interleaving draws ASes 1..12
	populated := func() *CorpusIndex { ix, _, _, _ := interleavedIndex(1); return ix }
	for _, tc := range []struct {
		table  string
		remove func(ix *CorpusIndex)
	}{
		{"occur", func(ix *CorpusIndex) { bump(ix.occur, absent, -1) }},
		{"nbrPair", func(ix *CorpusIndex) { bumpPair(ix.nbrPair, ix.deg, 1, absent, -1) }},
		{"transitPair", func(ix *CorpusIndex) { bumpPair(ix.transitPair, ix.transitDeg, 1, absent, -1) }},
		{"preTriples", func(ix *CorpusIndex) { bump(ix.preTriples, Triple{Prev: 1, Mid: absent, Next: 2}, -1) }},
		{"links", func(ix *CorpusIndex) { bump(ix.links, paths.NewLink(1, absent), -1) }},
		{"triples", func(ix *CorpusIndex) { bump(ix.triples, Triple{Prev: 1, Mid: absent, Next: 2}, -1) }},
		{"origins", func(ix *CorpusIndex) { bump(ix.origins, absent, -1) }},
		{"vpOrigins", func(ix *CorpusIndex) { bump(ix.vpOrigins, VPPair{VP: 1, Other: absent}, -1) }},
		{"vpFirstHops", func(ix *CorpusIndex) { bump(ix.vpFirstHops, VPPair{VP: 1, Other: absent}, -1) }},
		{"AddPath", func(ix *CorpusIndex) { ix.AddPath([]uint32{absent, 1}, -1) }},
		{"AddKept", func(ix *CorpusIndex) { ix.AddKept([]uint32{absent, 1}, -1) }},
		{"more units than held", func(ix *CorpusIndex) {
			ix.AddPath([]uint32{absent, 1}, 2)
			ix.AddPath([]uint32{absent, 1}, -3)
		}},
	} {
		t.Run(tc.table, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "refcount underflow") {
					t.Errorf("panic = %s, want a refcount underflow", msg)
				}
			}()
			tc.remove(populated())
		})
	}
}
