package cone

import (
	"slices"

	"github.com/asrank-go/asrank/internal/asindex"
)

// Rows is a finished cone product at rest: each interned position's
// cone as an ascending list of member positions, all lists in one
// array. Row p is members[start[p]:start[p+1]], so a cone costs one
// offset plus one entry per member — a stub's {self} cone, almost every
// row of a real product, is one entry where a dense row is n bits.
// Every engine builds its product as Rows, and Rows is what is stored,
// served and handed between layers: no layer holds an n × n slab.
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

// Sizes returns per-AS cone sizes in number of ASes, keyed by ASN.
func (r *Rows) Sizes() map[uint32]int {
	out := make(map[uint32]int, r.Len())
	for p, asn := range r.idx.ASNs() {
		out[asn] = int(r.start[p+1] - r.start[p])
	}
	return out
}

// WeightedSizes sums a per-position weight over each cone: out[p] is
// the total weight of cone p's members, where w is indexed by interned
// position (w[p] = 0 for unweighted ASes) — prefix- or address-weighted
// cone sizes. w must have at least Len() entries.
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

// credit is one crediting of member into owner's cone, by interned
// position.
type credit struct{ owner, member int32 }

// listRows builds member lists over idx from credits, self always a
// member: a counting sort by owner, reading the credit lists in the
// order given, then each row sorted and its repeats dropped. A row is a
// set, so neither the order of the credits nor how often one repeats
// can change the product. It is the one list-building rule of the
// package: the crediting engines' shard merge and PairCounts.Rows both
// end here. When repeats were dropped the lists are copied once more,
// into an array of the product's exact size, so what the product
// retains is one entry per member.
func listRows(idx *asindex.Index, credits ...[]credit) *Rows {
	n := idx.Len()
	start := make([]int32, n+1)
	for p := range n {
		start[p+1] = 1 // self
	}
	for _, cs := range credits {
		for _, c := range cs {
			start[c.owner+1]++
		}
	}
	for p := range n {
		start[p+1] += start[p]
	}
	members := make([]int32, start[n])
	at := slices.Clone(start[:n])
	for p := range n {
		members[at[p]] = int32(p)
		at[p]++
	}
	for _, cs := range credits {
		for _, c := range cs {
			members[at[c.owner]] = c.member
			at[c.owner]++
		}
	}
	// at[p] becomes row p's length once its repeats are dropped.
	total := int32(0)
	for p := range n {
		row := members[start[p]:start[p+1]]
		if len(row) > 1 {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		at[p] = int32(len(row))
		total += at[p]
	}
	if int(total) == len(members) {
		return &Rows{idx: idx, start: start, members: members}
	}
	exact, packed := make([]int32, n+1), make([]int32, total)
	for p := range n {
		exact[p+1] = exact[p] + at[p]
		copy(packed[exact[p]:exact[p+1]], members[start[p]:])
	}
	return &Rows{idx: idx, start: exact, members: packed}
}
