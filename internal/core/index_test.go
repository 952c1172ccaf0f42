package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
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
		if !reflect.DeepEqual(settled(ix), settled(fresh)) {
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

// settled settles every kept run of ix, as InferIndexed does before it
// reads them, and returns ix: two indexes over one key set then hold
// their runs alike, whatever order the keys arrived in. An emptied
// slice is a fresh run's nil.
func settled(ix *CorpusIndex) *CorpusIndex {
	runs := []*keptRun{&ix.keptLinks}
	for _, r := range ix.keptContexts {
		runs = append(runs, r)
	}
	for _, r := range runs {
		if len(r.settle()) == 0 {
			r.keys = nil
		}
		r.born, r.dead = nil, nil
	}
	return ix
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

// recount builds by plain loops over the live paths — each with its
// units in the ranked and the kept layer — the index a fold of them
// holds, calling no mutator: the hop contexts and the per-path tables
// count units; links and transit pairs count the distinct contexts that
// project to them, per layer; the degrees are paths.Dataset's own over
// the ranked units; the kept runs are the kept contexts by middle AS
// and the kept links, each sorted. It also returns what the kept units hold by
// paths.Dataset's reckoning and by a scan of their first two hops: the
// link set, and the (VP, first hop) pairs in step 6's order.
func recount(pool [][]uint32, ranked, kept []int) (want *CorpusIndex, links map[paths.Link]int, starts []VPPair) {
	want = NewCorpusIndex()
	var rankedDS, keptDS paths.Dataset
	seen := map[VPPair]bool{}
	for i, p := range pool {
		r, k := ranked[i], kept[i]
		for u := 0; u < r; u++ {
			rankedDS.Add(paths.Path{ASNs: p})
		}
		for u := 0; u < k; u++ {
			keptDS.Add(paths.Path{ASNs: p})
		}
		if len(p) == 1 && r > 0 {
			want.occur[p[0]] += r
		}
		if k > 0 {
			want.origins[p[len(p)-1]] += k
			if len(p) >= 2 {
				want.vpOrigins[VPPair{VP: p[0], Other: p[len(p)-1]}] += k
				if vp := (VPPair{VP: p[0], Other: p[1]}); !seen[vp] {
					seen[vp] = true
					starts = append(starts, vp)
				}
			}
		}
		for j := 0; j+1 < len(p) && r+k > 0; j++ {
			var prev uint32
			if j > 0 {
				prev = p[j-1]
			}
			t := Triple{Prev: prev, Mid: p[j], Next: p[j+1]}
			c := want.triples[t]
			c.ranked += int32(r)
			c.kept += int32(k)
			want.triples[t] = c
		}
	}
	for t, c := range want.triples {
		l := paths.NewLink(t.Mid, t.Next)
		e := want.links[l]
		if c.ranked > 0 {
			e.ranked++
			if t.Prev != 0 {
				want.transitPair[pairKey{t.Mid, t.Prev}]++
				want.transitPair[pairKey{t.Mid, t.Next}]++
			}
		}
		if c.kept > 0 {
			e.kept++
			r := want.keptContexts[t.Mid]
			if r == nil {
				r = &keptRun{}
				want.keptContexts[t.Mid] = r
			}
			r.keys = append(r.keys, uint64(t.Next)<<32|uint64(t.Prev))
		}
		want.links[l] = e
	}
	for l, e := range want.links {
		if e.kept > 0 {
			want.keptLinks.keys = append(want.keptLinks.keys, uint64(l.A)<<32|uint64(l.B))
		}
	}
	for _, r := range want.keptContexts {
		slices.Sort(r.keys)
	}
	slices.Sort(want.keptLinks.keys)
	for k := range want.vpOrigins {
		want.vpOriginCount[k.VP]++
	}
	want.deg, want.transitDeg = rankedDS.Degrees(), rankedDS.TransitDegrees()
	slices.SortFunc(starts, func(a, b VPPair) int {
		return cmp.Or(cmp.Compare(a.VP, b.VP), cmp.Compare(a.Other, b.Other))
	})
	return want, keptDS.Links(), starts
}

// checkRecount holds ix to the recount of the live paths: each settled
// kept run, every table, the kept link set against Dataset.Links', and
// the first hops step 6 visits against the kept paths' own.
func checkRecount(t *testing.T, what string, ix *CorpusIndex, pool [][]uint32, ranked, kept []int) {
	t.Helper()
	want, links, starts := recount(pool, ranked, kept)
	settled(ix)
	for mid, r := range want.keptContexts {
		if got := ix.keptContexts[mid]; got == nil || !slices.Equal(got.keys, r.keys) {
			t.Fatalf("%s: AS %d's settled kept run is %v, the recount's %v", what, mid, got, r.keys)
		}
	}
	if !slices.Equal(ix.keptLinks.keys, want.keptLinks.keys) {
		t.Fatalf("%s: settled kept-link run %v, the recount's %v", what, ix.keptLinks.keys, want.keptLinks.keys)
	}
	if !reflect.DeepEqual(ix, want) {
		t.Fatalf("%s: index differs from the naive recount:\n got %+v\nwant %+v", what, ix, want)
	}
	if got, want := ix.Links(), paths.SortedLinks(links); !slices.Equal(got, want) {
		t.Fatalf("%s: Links() = %v, Dataset.Links over the kept paths %v", what, got, want)
	}
	if got := firstHops(ix); !slices.Equal(got, starts) {
		t.Fatalf("%s: first hops %v, the kept paths start %v", what, got, starts)
	}
}

// TestIndexMatchesNaiveRecount holds the mutators to a reference they
// did not build: after the same ±d interleaving the index is compared
// with a recount by plain loops over the live multiset (recount). The
// fresh index of the test above is folded by the mutators under test,
// so a fault common to add and remove — an add that miscounts a key it
// finds absent, say — would pass there.
func TestIndexMatchesNaiveRecount(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ix, pool, units, kept := interleavedIndex(seed)
		keptUnits := make([]int, len(pool))
		for i := range pool {
			if kept[i] {
				keptUnits[i] = units[i]
			}
		}
		checkRecount(t, fmt.Sprintf("seed %d", seed), ix, pool, units, keptUnits)
	}
}

// TestIndexRefcountUnderflowPanics: taking out what was never put in is
// a caller bug every table reports, whatever else the index holds, and
// each layer of a two-layer entry reports it on its own.
func TestIndexRefcountUnderflowPanics(t *testing.T) {
	const absent = 99 // the interleaving draws ASes 1..12
	populated := func() *CorpusIndex { ix, _, _, _ := interleavedIndex(1); return ix }
	for _, tc := range []struct {
		table  string
		remove func(ix *CorpusIndex)
	}{
		{"triples", func(ix *CorpusIndex) { add(ix.triples, Triple{Prev: 1, Mid: absent, Next: 2}, -1, 0) }},
		{"occur", func(ix *CorpusIndex) { bump(ix.occur, absent, -1) }},
		{"origins", func(ix *CorpusIndex) { bump(ix.origins, absent, -1) }},
		{"vpOrigins", func(ix *CorpusIndex) { bump(ix.vpOrigins, VPPair{VP: 1, Other: absent}, -1) }},
		{"links", func(ix *CorpusIndex) { add(ix.links, paths.NewLink(1, absent), 0, -1) }},
		{"deg", func(ix *CorpusIndex) { bump(ix.deg, absent, -1) }},
		{"transitPair", func(ix *CorpusIndex) { bump(ix.transitPair, pairKey{1, absent}, -1) }},
		{"transitDeg", func(ix *CorpusIndex) { bump(ix.transitDeg, absent, -1) }},
		{"AddPath", func(ix *CorpusIndex) { ix.AddPath([]uint32{absent, 1}, -1) }},
		{"AddKept", func(ix *CorpusIndex) { ix.AddKept([]uint32{absent, 1}, -1) }},
		{"more units than held", func(ix *CorpusIndex) {
			ix.AddPath([]uint32{absent, 1}, 2)
			ix.AddPath([]uint32{absent, 1}, -3)
		}},
		{"kept units the ranked layer holds", func(ix *CorpusIndex) {
			ix.AddPath([]uint32{absent, 1, 2}, 2)
			ix.AddKept([]uint32{absent, 1, 2}, -1)
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

// FuzzCorpusIndex runs a byte program of AddPath/AddKept(±d) calls over
// paths of ASes 1..12 — prepending, loops and one-hop paths included —
// whose removals never take out more units than the layer holds, and
// holds the index after it to the naive recount of what is live, and
// its ranking and clique to a fresh fold of +1 per live path per layer.
//
// Each call is a header byte — bit 0 the layer, bit 1 a removal, bits
// 2–3 the multiplicity less one, bits 4–7 the path length less one
// (modulo 6) — then one byte per hop.
func FuzzCorpusIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 1, 2, 3, 0x21, 1, 2, 3, 0x23, 1, 2, 3, 0x22, 1, 2, 3})
	f.Add([]byte{0x34, 5, 5, 6, 7, 0x01, 4, 0x30, 1, 2, 1, 2, 0x12, 1, 2})
	for seed := int64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed)
		prog := make([]byte, 256)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		ix := NewCorpusIndex()
		var pool [][]uint32
		id := map[string]int{}
		var units [2][]int // per layer, per pool path
		for calls := 0; len(prog) > 0 && calls < 64; calls++ {
			h := prog[0]
			n := min(1+int(h>>4)%6, len(prog)-1)
			hops := make([]uint32, n)
			for j, b := range prog[1 : 1+n] {
				hops[j] = 1 + uint32(b)%12
			}
			prog = prog[1+n:]
			if n == 0 {
				break
			}
			key := fmt.Sprint(hops)
			i, ok := id[key]
			if !ok {
				i = len(pool)
				id[key] = i
				pool = append(pool, hops)
				units[0], units[1] = append(units[0], 0), append(units[1], 0)
			}
			layer, d := h&1, 1+int(h>>2)&3
			if h&2 != 0 {
				if d = -min(d, units[layer][i]); d == 0 {
					continue
				}
			}
			units[layer][i] += d
			if layer == 0 {
				ix.AddPath(hops, d)
			} else {
				ix.AddKept(hops, d)
			}
		}
		checkRecount(t, "after the program", ix, pool, units[0], units[1])

		fresh := NewCorpusIndex()
		for i, p := range pool {
			if units[0][i] > 0 {
				fresh.AddPath(p, 1)
			}
			if units[1][i] > 0 {
				fresh.AddKept(p, 1)
			}
		}
		rank, want := ix.Rank(), fresh.Rank()
		if !slices.Equal(rank, want) {
			t.Fatalf("Rank() = %v, a fresh +1 fold gives %v", rank, want)
		}
		if got, want := CliqueFromIndex(ix, rank, Options{}), CliqueFromIndex(fresh, want, Options{}); !slices.Equal(got, want) {
			t.Fatalf("clique = %v, a fresh +1 fold gives %v", got, want)
		}
	})
}
