package cone

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// dense is the refcount sink read back as a dense slab, the layout
// PairCounts handed out before its cones were built as rows: every
// position's self bit set, then one bit per refcounted pair. It is the
// oracle PairCounts.Rows is held to.
func (pc *PairCounts) dense(idx *asindex.Index) *bitSets {
	bs := newBitSets(idx)
	for i := 0; i < idx.Len(); i++ {
		bs.row(int32(i)).Set(int32(i))
	}
	for k := range pc.counts {
		oi, ok1 := idx.Pos(uint32(k >> 32))
		mi, ok2 := idx.Pos(uint32(k))
		if !ok1 || !ok2 {
			panic("cone: credited pair references an AS outside the index")
		}
		bs.row(oi).Set(mi)
	}
	return bs
}

// equalDense reports the first way rows differ from the dense product
// bs, or "": the same offsets column as bs's popcounts, each row the
// ascending positions of bs's bits, and Contains, Members, Sizes and
// WeightedSizes answering alike for every pair of ASes.
func equalDense(t *testing.T, rows *Rows, bs *bitSets, rng *rand.Rand) string {
	t.Helper()
	n := bs.Len()
	if rows.Len() != n || len(rows.start) != n+1 || rows.start[0] != 0 || int(rows.start[n]) != len(rows.members) {
		return "offsets column of the wrong shape"
	}
	for p := range n {
		var want []int32
		bs.row(int32(p)).ForEach(func(m int32) { want = append(want, m) })
		if got := rows.Row(int32(p)); !slices.Equal(got, want) && len(got)+len(want) > 0 {
			return fmt.Sprintf("row %d is %v, the dense row's bits %v", p, got, want)
		}
	}
	asns := bs.Index().ASNs()
	for _, a := range asns {
		if !slices.Equal(rows.Members(a), bs.Members(a)) {
			return "Members differs"
		}
		for _, m := range asns {
			if rows.Contains(a, m) != bs.Contains(a, m) {
				return "Contains differs"
			}
		}
	}
	if !reflect.DeepEqual(rows.Sizes(), bs.Sizes()) {
		return "Sizes differs"
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = rng.Int63n(1 << 20)
	}
	if !slices.Equal(rows.WeightedSizes(w), bs.WeightedSizes(w)) {
		return "WeightedSizes differs"
	}
	return ""
}

// randomRelations draws a relationship set over ASes 1..n: each pair is
// linked with probability linkP, as p2c either way or p2p. Nothing keeps
// the p2c links acyclic, so a draw of any size holds p2c cycles.
func randomRelations(rng *rand.Rand, n int, linkP float64) map[paths.Link]topology.Relationship {
	rels := make(map[paths.Link]topology.Relationship)
	for a := uint32(1); a <= uint32(n); a++ {
		for b := a + 1; b <= uint32(n); b++ {
			if rng.Float64() < linkP {
				rels[paths.Link{A: a, B: b}] = []topology.Relationship{topology.P2C, topology.C2P, topology.P2P}[rng.Intn(3)]
			}
		}
	}
	return rels
}

// randomWalks draws count paths as walks over the links of rels, each
// repeated a random number of times, so rows share hop sequences as a
// RIB's do; a walk may revisit an AS.
func randomWalks(rng *rand.Rand, rels map[paths.Link]topology.Relationship, count int) *paths.Dataset {
	nbrs := make(map[uint32][]uint32)
	links := make([]paths.Link, 0, len(rels))
	for l := range rels {
		links = append(links, l)
	}
	slices.SortFunc(links, paths.CompareLinks)
	for _, l := range links {
		nbrs[l.A] = append(nbrs[l.A], l.B)
		nbrs[l.B] = append(nbrs[l.B], l.A)
	}
	ds := &paths.Dataset{}
	for walks := 0; walks < count && len(links) > 0; walks++ {
		l := links[rng.Intn(len(links))]
		hops := []uint32{l.A, l.B}
		for len(hops) < 8 && rng.Intn(4) > 0 {
			next := nbrs[hops[len(hops)-1]]
			hops = append(hops, next[rng.Intn(len(next))])
		}
		for k := rng.Intn(3); k >= 0; k-- {
			ds.Add(paths.Path{ASNs: hops})
		}
	}
	return ds
}

// TestEnginesEqualDenseOracles holds every list engine to the dense
// engine it replaced, row for row: the closure, and the BGP-observed
// and provider/peer-observed crediting over a corpus's rows and over
// the distinct paths of its grouping (Groups.Filter's, as core.Infer's
// kept corpus carries) — on random relationship sets holding p2c
// cycles and on generated Internets, at one to four workers.
func TestEnginesEqualDenseOracles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(45))
	type corpus struct {
		name string
		rels map[paths.Link]topology.Relationship
		ds   *paths.Dataset
	}
	var corpora []corpus
	for k, n := range []int{2, 5, 9, 30, 70, 140} {
		rels := randomRelations(rng, n, min(1, 8/float64(n)))
		walks := randomWalks(rng, rels, 3*n)
		grouped := paths.GroupByHopsFeed(walks, nil).Filter(walks, func([]uint32) bool { return true })
		corpora = append(corpora, corpus{fmt.Sprintf("random %d (%d ASes)", k, n), rels, grouped})
	}
	for seed := int64(1); seed <= 2; seed++ {
		res := inferredCorpus(t, seed, 150)
		corpora = append(corpora, corpus{fmt.Sprintf("generated seed %d", seed), res.Rels, res.Dataset})
	}
	cyclic, shared := 0, 0
	for _, c := range corpora {
		g := c.ds.Groups()
		if g == nil {
			t.Fatalf("%s: the corpus carries no grouping", c.name)
		}
		if len(g.Hops) < len(c.ds.Paths) {
			shared++
		}
		r := NewRelations(c.rels)
		rows := &paths.Dataset{Paths: c.ds.Paths} // no grouping: credited row by row
		rowHops := func(i int) []uint32 { return c.ds.Paths[i].ASNs }
		want := map[string]*bitSets{
			"recursive": denseClosure(r),
			"bgp":       denseObserved(r, len(c.ds.Paths), rowHops, false),
			"pp":        denseObserved(r, len(c.ds.Paths), rowHops, true),
		}
		if hasCycle(want["recursive"]) {
			cyclic++
		}
		for procs := 1; procs <= 4; procs++ {
			runtime.GOMAXPROCS(procs)
			for name, got := range map[string]*Rows{
				"recursive": r.RecursiveBits(),
				"bgp":       r.BGPObservedBits(c.ds),
				"pp":        r.ProviderPeerObservedBits(c.ds),
				"bgp rows":  r.BGPObservedBits(rows),
				"pp rows":   r.ProviderPeerObservedBits(rows),
			} {
				oracle := want[strings.TrimSuffix(name, " rows")]
				if diff := equalDense(t, got, oracle, rng); diff != "" {
					t.Errorf("%s, %d workers, %s: %s", c.name, procs, name, diff)
				}
			}
		}
	}
	if cyclic < 4 {
		t.Errorf("%d corpora hold a p2c cycle, want the random ones to", cyclic)
	}
	if shared < len(corpora)-1 {
		t.Errorf("%d of %d corpora have rows sharing a path, want all but the smallest to", shared, len(corpora))
	}
}

// hasCycle reports whether two ASes are in each other's recursive cone.
func hasCycle(rec *bitSets) bool {
	for p := range int32(rec.Len()) {
		found := false
		rec.row(p).ForEach(func(m int32) { found = found || m != p && rec.row(m).Contains(p) })
		if found {
			return true
		}
	}
	return false
}

// TestListRowsEqualsDense holds the list-building rule to the slab the
// same credits set: random credit lists, self credits and repeats
// included, split over any number of lists, at sizes on and off a word
// boundary.
func TestListRowsEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 300} {
		asns := make([]uint32, n)
		for i := range asns {
			asns[i] = uint32(10 * (i + 1))
		}
		idx := asindex.New(asns)
		bs := newBitSets(idx)
		var lists [][]credit
		for l := rng.Intn(4); l >= 0 && n > 0; l-- {
			var cs []credit
			for k := rng.Intn(3 * n); k >= 0; k-- {
				c := credit{owner: int32(rng.Intn(n)), member: int32(rng.Intn(n))}
				if rng.Intn(8) == 0 {
					c.member = c.owner
				}
				cs = append(cs, c)
				bs.row(c.owner).Set(c.member)
			}
			lists = append(lists, cs)
		}
		for p := range n {
			bs.row(int32(p)).Set(int32(p))
		}
		rows := listRows(idx, lists...)
		if diff := equalDense(t, rows, bs, rng); diff != "" {
			t.Errorf("random credits over %d ASes: %s", n, diff)
		}
		if cap(rows.members) != len(rows.members) {
			t.Errorf("%d ASes: the product retains %d member slots for %d members", n, cap(rows.members), len(rows.members))
		}
	}
}

// TestPairCountsRowsEqualsDense holds the counting sort to the dense
// slab the refcounts used to be read back as, after every step of a
// random credit and uncredit program over a generated corpus.
func TestPairCountsRowsEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for seed := int64(1); seed <= 3; seed++ {
		res := inferredCorpus(t, seed, 150)
		idx := NewRelations(res.Rels).Index()
		pc := NewPairCounts()
		in := make([]bool, len(res.Dataset.Paths))
		for step := 0; step < 6; step++ {
			for i, p := range res.Dataset.Paths {
				if rng.Intn(3) > 0 {
					continue
				}
				d := 1
				if in[i] {
					d = -1
				}
				in[i] = !in[i]
				pc.Credit(res.Rels, p.ASNs, d)
			}
			if diff := equalDense(t, pc.Rows(idx), pc.dense(idx), rng); diff != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, diff)
			}
		}
	}
}

// TestRowsContainsAllocFree pins what the hotpath mark on
// Rows.Contains promises: a binary search, no allocation, hit or miss.
func TestRowsContainsAllocFree(t *testing.T) {
	rows := hierarchy().RecursiveBits()
	if allocs := testing.AllocsPerRun(100, func() {
		_ = rows.Contains(1, 5)
		_ = rows.Contains(5, 1)
		_ = rows.Contains(99, 1)
	}); allocs != 0 {
		t.Errorf("Contains allocates %v times per call, want 0", allocs)
	}
}

// TestRowsAccessors covers the product's query API.
func TestRowsAccessors(t *testing.T) {
	rows := hierarchy().RecursiveBits()
	if got, want := rows.Sizes(), map[uint32]int{1: 4, 2: 2, 3: 2, 4: 1, 5: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Sizes() = %v, want %v", got, want)
	}
	if rows.Len() != 5 || rows.Index().Len() != 5 {
		t.Errorf("Len = %d, Index().Len() = %d", rows.Len(), rows.Index().Len())
	}
	start, members := rows.Columns()
	if !slices.Equal(start, []int32{0, 4, 6, 8, 9, 10}) || !slices.Equal(members, []int32{0, 2, 3, 4, 1, 3, 2, 4, 3, 4}) {
		t.Errorf("Columns() = %v, %v", start, members)
	}
	if again := NewRows(rows.Index(), start, members); !reflect.DeepEqual(again, rows) {
		t.Error("NewRows over a product's own columns reads different cones")
	}
	if !rows.Contains(1, 5) || rows.Contains(5, 1) || rows.Contains(99, 1) || rows.Contains(1, 99) {
		t.Error("Contains wrong")
	}
	if got := rows.Members(1); !reflect.DeepEqual(got, []uint32{1, 3, 4, 5}) {
		t.Errorf("Members(1) = %v", got)
	}
	if rows.Members(99) != nil {
		t.Error("Members(99) should be nil")
	}
	if got := rows.WeightedSizes([]int64{1000, 0, 256, 512, 128}); !slices.Equal(got, []int64{1896, 512, 384, 512, 128}) {
		t.Errorf("WeightedSizes = %v", got)
	}
}
