// Package asindex interns sparse 32-bit AS numbers into a dense
// [0..n) index so that per-AS sets can be represented as bitsets and
// per-AS tables as slices. At Internet scale (~50k ASes, ~500k links)
// the dense representation is what makes cone closure and reachability
// queries cache-friendly: a membership test is one shift and mask
// instead of a map probe, and a whole cone fits in n/8 bytes.
package asindex

import (
	"math/bits"
	"slices"
)

// Index is an immutable bijection between a set of ASNs and the dense
// positions [0..Len()). Positions are assigned in ascending ASN order,
// so interned order is deterministic for a given AS set.
type Index struct {
	asns []uint32
	pos  map[uint32]int32
}

// New builds an index over the given ASNs (duplicates are collapsed).
// The input slice is not retained.
func New(asns []uint32) *Index {
	out := slices.Clone(asns)
	slices.Sort(out)
	out = slices.Compact(out)
	ix := &Index{asns: out, pos: make(map[uint32]int32, len(out))}
	for i, a := range out {
		ix.pos[a] = int32(i)
	}
	return ix
}

// FromSorted builds an index over ASNs that are already strictly
// ascending — the stable intern-order serialization seam: an index
// round-tripped through storage as its sorted ASN column rebuilds
// bit-for-bit without re-sorting. The input is copied, not retained.
// Callers own the ordering contract (the warehouse decoder validates
// it while parsing); FromSorted itself trusts its input.
func FromSorted(asns []uint32) *Index {
	out := append([]uint32(nil), asns...)
	ix := &Index{asns: out, pos: make(map[uint32]int32, len(out))}
	for i, a := range out {
		ix.pos[a] = int32(i)
	}
	return ix
}

// Len returns the number of interned ASNs.
func (ix *Index) Len() int { return len(ix.asns) }

// Pos returns the dense position of asn, or false if it is not interned.
func (ix *Index) Pos(asn uint32) (int32, bool) {
	p, ok := ix.pos[asn]
	return p, ok
}

// ASN returns the ASN at dense position p.
func (ix *Index) ASN(p int32) uint32 { return ix.asns[p] }

// ASNs returns the interned ASNs in position (ascending) order. The
// returned slice is shared; callers must not modify it.
func (ix *Index) ASNs() []uint32 { return ix.asns }

// Bitset is a fixed-capacity set of dense positions backed by packed
// 64-bit words.
type Bitset []uint64

// NewBitset returns an empty bitset with capacity for n positions.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set adds position i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// TrySet adds position i and reports whether it was newly added.
func (b Bitset) TrySet(i int32) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// Contains reports whether position i is in the set.
func (b Bitset) Contains(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Or merges o into b. The two bitsets must have equal capacity.
func (b Bitset) Or(o Bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// Count returns the number of set positions.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set position in ascending order.
func (b Bitset) ForEach(fn func(i int32)) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(int32(wi<<6 + bit))
			w &= w - 1
		}
	}
}

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}
