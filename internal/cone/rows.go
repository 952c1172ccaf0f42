package cone

import (
	"math/bits"
	"slices"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/pool"
)

// Rows is a finished cone product at rest: each interned position's
// cone as an ascending list of member positions, all lists in one
// array. Row p is members[start[p]:start[p+1]], so a cone costs one
// offset plus one entry per member — a stub's {self} cone, almost every
// row of a real product, is one entry where a dense row is n bits.
// Only the batch crediting engine builds a dense BitSets; what is
// stored, served and handed between layers is Rows.
type Rows struct {
	idx     *asindex.Index
	start   []int32 // idx.Len()+1 offsets into members, ascending from 0
	members []int32 // every row's member positions, each row ascending
}

// NewRows views the two columns of a cone product as Rows over idx:
// start holds idx.Len()+1 non-decreasing offsets into members, from 0
// to len(members), and each row is ascending with every member below
// idx.Len(). Nothing is copied or checked; neither column may be
// written afterwards.
func NewRows(idx *asindex.Index, start, members []int32) *Rows {
	return &Rows{idx: idx, start: start, members: members}
}

// Index returns the dense ASN index the cones are expressed in.
func (r *Rows) Index() *asindex.Index { return r.idx }

// Len returns the number of ASes with a cone.
func (r *Rows) Len() int { return r.idx.Len() }

// Columns returns the product's two columns, shared, not copied: a
// caller that stores them (warehouse.Snapshot) owns the product from
// then on, and nobody may write to them.
func (r *Rows) Columns() (start, members []int32) { return r.start, r.members }

// Row returns position p's cone, ascending member positions. Shared;
// callers must not modify it.
func (r *Rows) Row(p int32) []int32 { return r.members[r.start[p]:r.start[p+1]] }

// Contains reports whether member is in asn's cone: a binary search of
// one row.
//
//asrank:hotpath
func (r *Rows) Contains(asn, member uint32) bool {
	ai, ok1 := r.idx.Pos(asn)
	mi, ok2 := r.idx.Pos(member)
	if !ok1 || !ok2 {
		return false
	}
	_, found := slices.BinarySearch(r.Row(ai), mi)
	return found
}

// Members returns asn's cone membership as ASNs, ascending, or nil when
// asn is not interned.
func (r *Rows) Members(asn uint32) []uint32 {
	ai, ok := r.idx.Pos(asn)
	if !ok {
		return nil
	}
	row := r.Row(ai)
	out := make([]uint32, len(row))
	for i, m := range row {
		out[i] = r.idx.ASN(m)
	}
	return out
}

// WeightedSizes sums a per-position weight over each cone, as
// BitSets.WeightedSizes does: out[p] is the total weight of cone p's
// members. w must have at least Len() entries.
func (r *Rows) WeightedSizes(w []int64) []int64 {
	out := make([]int64, r.Len())
	for p := range out {
		var sum int64
		for _, m := range r.Row(int32(p)) {
			sum += w[m]
		}
		out[p] = sum
	}
	return out
}

// Rows packs the product into member lists: one parallel count of each
// row's bits sizes the lists exactly, and one parallel pass writes
// each row's members where its offset says.
func (bs *BitSets) Rows() *Rows {
	n := bs.Len()
	start := make([]int32, n+1)
	pool.Chunks(0, n, 256, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			start[p+1] = int32(bs.row(int32(p)).Count())
		}
	})
	for p := 0; p < n; p++ {
		start[p+1] += start[p]
	}
	members := make([]int32, start[n])
	pool.Chunks(0, n, 256, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			at := start[p]
			for wi, w := range bs.row(int32(p)) {
				for ; w != 0; w &= w - 1 {
					members[at] = int32(wi<<6 + bits.TrailingZeros64(w))
					at++
				}
			}
		}
	})
	return &Rows{idx: bs.idx, start: start, members: members}
}
