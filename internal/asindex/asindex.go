// Package asindex interns sparse 32-bit AS numbers into a dense
// [0..n) index so that per-AS tables are slices and per-AS sets are
// lists of int32 positions. At Internet scale (~50k ASes, ~500k links)
// the dense representation is what makes cone closure and reachability
// queries cache-friendly: a customer list, a stamp array or a cone's
// member list is indexed by position instead of probed by ASN.
package asindex

import "slices"

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
