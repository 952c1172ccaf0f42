package warehouse

import (
	"encoding/binary"

	"github.com/asrank-go/asrank/internal/cone"
)

// replayer is the one mutable working epoch a chain of segments is
// replayed into (DESIGN.md §14): Open, Store.Snapshot and the fuzz
// target each make their own and feed it one segment after another.
//
// The small columns of cur are immutable values, replaced whole by each
// epoch, so a predecessor's columns stay readable after the next epoch
// lands (History keeps them). The cone slab is the only state written in
// place: a delta whose AS set is unchanged XORs its flipped bits straight
// into slab, a delta that adds or removes ASes remaps slab into spare
// and the two swap. Every epoch is applied validate-then-mutate — all
// columns decoded and cross-checked before the first write to slab,
// spare's contents being nobody's state — so an epoch that fails leaves
// the replayer exactly at its predecessor.
type replayer struct {
	cur         *Snapshot // columns of the working epoch; ConeWords and RankPos stay nil
	slab, spare []uint64  // cur's cone slab and the other half of the ping-pong pair
	sizes       []int32   // cone size by position, kept current from the flipped bits
	m           indexMap  // scratch: the alignment of the delta being applied
	ases        int       // the chain's largest epoch, which sizes and both slabs are made for
}

// newReplayer notes the largest AS count the chain's manifest entries
// promise: the working buffers are made for it, so no epoch of the chain
// reallocates them (fit still grows one if the manifest under-promised).
func newReplayer(chain []EpochInfo) *replayer {
	r := &replayer{}
	for _, info := range chain {
		r.ases = max(r.ases, info.ASes)
	}
	return r
}

// slabFor returns buf resliced to the slab of an n-AS epoch.
func (r *replayer) slabFor(buf []uint64, n int) []uint64 {
	return fit(buf, (n+63)/64*n, (r.ases+63)/64*r.ases)
}

// fit reslices buf to n elements, replacing it (with at least hint
// capacity) when it is too small. The contents are unspecified.
func fit[T any](buf []T, n, hint int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, hint))
	}
	return buf[:n]
}

// full replaces the working epoch with a full epoch's columns.
func (r *replayer) full(cols map[byte][]byte) error {
	p, err := col(cols, colASNs)
	if err != nil {
		return err
	}
	asns, err := decodeAscendingU32(p, colASNs)
	if err != nil {
		return err
	}
	n := len(asns)
	s := &Snapshot{ASNs: asns}

	if p, err = col(cols, colTransitDeg); err != nil {
		return err
	}
	if s.TransitDegree, err = decodeI32Column(p, n, colTransitDeg); err != nil {
		return err
	}
	if p, err = col(cols, colDegree); err != nil {
		return err
	}
	if s.Degree, err = decodeI32Column(p, n, colDegree); err != nil {
		return err
	}
	if p, err = col(cols, colConePrefixes); err != nil {
		return err
	}
	if s.ConePrefixes, err = decodeI64Column(p, n, colConePrefixes); err != nil {
		return err
	}
	if err = decodeShared(cols, s); err != nil {
		return err
	}
	if p, err = col(cols, colLinks); err != nil {
		return err
	}
	if s.Links, err = decodeLinks(p, n, len(s.StepNames), colLinks); err != nil {
		return err
	}
	if p, err = col(cols, colConeWords); err != nil {
		return err
	}
	// The slab decodes into spare, so a run that fails midway has
	// written nothing the working epoch reads.
	r.spare = r.slabFor(r.spare, n)
	if err = decodeWordsRLE(p, r.spare, colConeWords); err != nil {
		return err
	}
	r.cur, r.slab, r.spare = s, r.spare, r.slab
	r.sizes = cone.RowSizes(fit(r.sizes, n, r.ases), r.slab)
	return nil
}

// delta advances the working epoch by a delta epoch's columns.
func (r *replayer) delta(cols map[byte][]byte) error {
	old := r.cur
	p, err := col(cols, dcolRemovedASNs)
	if err != nil {
		return err
	}
	removed, err := decodeAscendingU32(p, dcolRemovedASNs)
	if err != nil {
		return err
	}
	if p, err = col(cols, dcolAddedASNs); err != nil {
		return err
	}
	added, err := decodeAscendingU32(p, dcolAddedASNs)
	if err != nil {
		return err
	}

	// Rebuild the new ASN column by merging out removals and merging in
	// additions (an unchanged AS set shares the predecessor's column),
	// then derive the position maps.
	asns := old.ASNs
	if len(removed)+len(added) > 0 {
		if asns, err = mergeASNs(old.ASNs, removed, added); err != nil {
			return err
		}
	}
	m := r.m.align(old.ASNs, asns, r.ases)
	n := len(asns)
	s := &Snapshot{ASNs: asns}

	// Dense columns: carry old values across surviving positions, then
	// apply sparse diffs in new positions.
	s.TransitDegree = make([]int32, n)
	s.Degree = make([]int32, n)
	s.ConePrefixes = make([]int64, n)
	for np := 0; np < n; np++ {
		if op := m.newToOld[np]; op >= 0 {
			s.TransitDegree[np] = old.TransitDegree[op]
			s.Degree[np] = old.Degree[op]
			s.ConePrefixes[np] = old.ConePrefixes[op]
		}
	}
	for _, spec := range []struct {
		id    byte
		apply func(sparseEntry)
	}{
		{dcolTransitDeg, func(e sparseEntry) { s.TransitDegree[e.pos] += int32(e.diff) }},
		{dcolDegree, func(e sparseEntry) { s.Degree[e.pos] += int32(e.diff) }},
		{dcolConePref, func(e sparseEntry) { s.ConePrefixes[e.pos] += e.diff }},
	} {
		if p, err = col(cols, spec.id); err != nil {
			return err
		}
		entries, err := decodeSparse(p, n, spec.id)
		if err != nil {
			return err
		}
		for _, e := range entries {
			spec.apply(e)
		}
	}

	if err = decodeShared(cols, s); err != nil {
		return err
	}

	if p, err = col(cols, dcolLinksRem); err != nil {
		return err
	}
	remLinks, err := decodePosPairs(p, len(old.ASNs))
	if err != nil {
		return err
	}
	if p, err = col(cols, dcolLinksAdd); err != nil {
		return err
	}
	addLinks, err := decodeLinks(p, n, len(s.StepNames), dcolLinksAdd)
	if err != nil {
		return err
	}
	if p, err = col(cols, dcolLinksChg); err != nil {
		return err
	}
	chgLinks, err := decodeLinks(p, n, len(s.StepNames), dcolLinksChg)
	if err != nil {
		return err
	}
	if s.Links, err = rebuildLinks(old, s, m, remLinks, addLinks, chgLinks); err != nil {
		return err
	}

	if p, err = col(cols, dcolConeXor); err != nil {
		return err
	}
	wps, wpsOld := s.WordsPerCone(), old.WordsPerCone()
	gaps, err := checkBitGaps(p, wps*n, dcolConeXor)
	if err != nil {
		return err
	}

	// Nothing below can fail. Cone slab: project the predecessor's rows
	// into the new index if the AS set moved, then flip the stored bits.
	if !m.identity() {
		r.spare = r.slabFor(r.spare, n)
		r.sizes = fit(r.sizes, n, r.ases) // rewritten below, never read
		for np := 0; np < n; np++ {
			row := r.spare[np*wps : (np+1)*wps]
			clear(row)
			r.sizes[np] = 0
			if op := int(m.newToOld[np]); op >= 0 {
				r.sizes[np] = int32(remapRow(row, r.slab[op*wpsOld:(op+1)*wpsOld], m.oldToNew))
			}
		}
		r.slab, r.spare = r.spare, r.slab
	}
	for idx := uint64(0); len(gaps) > 0; {
		gap, k := binary.Uvarint(gaps)
		gaps = gaps[k:]
		idx += gap
		w, bit := int(idx>>6), uint64(1)<<(idx&63)
		r.slab[w] ^= bit
		if r.slab[w]&bit != 0 {
			r.sizes[w/wps]++
		} else {
			r.sizes[w/wps]--
		}
	}
	r.cur = s
	return nil
}

// snapshot hands out the working epoch. The result owns its slab (a
// copy at exact capacity — the working pair never escapes) and is the
// only place a chain pays for the rank permutation; the replayer can go
// on to later epochs afterwards.
func (r *replayer) snapshot() *Snapshot {
	s := *r.cur
	s.ConeWords = make([]uint64, len(r.slab))
	copy(s.ConeWords, r.slab)
	s.RankPos = cone.RankPositions(r.sizes, s.TransitDegree)
	return &s
}
