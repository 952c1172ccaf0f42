package cone

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/asindex"
)

// dense is the refcount sink read back as a dense slab, the layout
// PairCounts handed out before its cones were built as rows: every
// position's self bit set, then one bit per refcounted pair. It is the
// oracle PairCounts.Rows is held to.
func (pc *PairCounts) dense(idx *asindex.Index) *BitSets {
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

// rowSets reads every row of r back through Members.
func rowSets(r *Rows) memberSets {
	out := make(memberSets, r.Len())
	for _, asn := range r.Index().ASNs() {
		out[asn] = set(r.Members(asn)...)
	}
	return out
}

// equalDense reports the first way rows differ from the dense product
// bs, or "": the same offsets column as bs's popcounts, each row the
// ascending positions of bs's bits, and Contains, Members and
// WeightedSizes answering alike for every pair of ASes.
func equalDense(t *testing.T, rows *Rows, bs *BitSets, rng *rand.Rand) string {
	t.Helper()
	n := bs.Len()
	if rows.Len() != n || len(rows.start) != n+1 || rows.start[0] != 0 || int(rows.start[n]) != len(rows.members) {
		return "offsets column of the wrong shape"
	}
	for p := range n {
		var want []int32
		bs.row(int32(p)).ForEach(func(m int32) { want = append(want, m) })
		if got := rows.Row(int32(p)); !slices.Equal(got, want) && len(got)+len(want) > 0 {
			return "a row differs from the dense row's bits"
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
	w := make([]int64, n)
	for i := range w {
		w[i] = rng.Int63n(1 << 20)
	}
	if !slices.Equal(rows.WeightedSizes(w), bs.WeightedSizes(w)) {
		return "WeightedSizes differs"
	}
	return ""
}

// TestBitSetsRowsEqualsDense holds the pack to the slab it packs: all
// three engines over generated Internets, and random slabs at sizes on
// and off a word boundary whose rows are empty, {self}, sparse or full.
func TestBitSetsRowsEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for seed := int64(1); seed <= 4; seed++ {
		res := inferredCorpus(t, seed, 150)
		r := NewRelations(res.Rels)
		for name, bs := range map[string]*BitSets{
			"recursive": r.RecursiveBits(),
			"bgp":       r.BGPObservedBits(res.Dataset),
			"pp":        r.ProviderPeerObservedBits(res.Dataset),
		} {
			if diff := equalDense(t, bs.Rows(), bs, rng); diff != "" {
				t.Errorf("seed %d %s: %s", seed, name, diff)
			}
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 130, 300} {
		asns := make([]uint32, n)
		for i := range asns {
			asns[i] = uint32(10 * (i + 1))
		}
		bs := newBitSets(asindex.New(asns))
		for p := range n {
			row := bs.row(int32(p))
			switch rng.Intn(4) {
			case 0:
			case 1:
				row.Set(int32(p))
			case 2:
				for k := rng.Intn(8); k >= 0; k-- {
					row.Set(int32(rng.Intn(n)))
				}
			default:
				for m := range n {
					row.Set(int32(m))
				}
			}
		}
		if diff := equalDense(t, bs.Rows(), bs, rng); diff != "" {
			t.Errorf("random slab of %d ASes: %s", n, diff)
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
	rows := hierarchy().RecursiveBits().Rows()
	if allocs := testing.AllocsPerRun(100, func() {
		_ = rows.Contains(1, 5)
		_ = rows.Contains(5, 1)
		_ = rows.Contains(99, 1)
	}); allocs != 0 {
		t.Errorf("Contains allocates %v times per call, want 0", allocs)
	}
}

// TestRowsAccessors covers the packed product's query API.
func TestRowsAccessors(t *testing.T) {
	bits := hierarchy().RecursiveBits()
	rows := bits.Rows()
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
