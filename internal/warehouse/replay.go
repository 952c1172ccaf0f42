package warehouse

import (
	"encoding/binary"
	"slices"

	"github.com/asrank-go/asrank/internal/cone"
)

// replayer is the one mutable working epoch a chain of segments is
// replayed into (DESIGN.md §14): Open, Store.Snapshot and the fuzz
// target each make their own and feed it one segment after another.
//
// The small columns of cur are immutable values, replaced whole by each
// epoch, so a predecessor's columns stay readable after the next epoch
// lands (History keeps them). The cone slab and its row sizes are the
// only state written in place: a delta whose AS set is unchanged XORs
// its flipped bits straight into slab and steps sizes with them, a delta
// that adds or removes ASes remaps slab and sizes into the spare pair
// and the pairs swap. Every epoch is applied validate-then-mutate — all
// columns decoded and cross-checked before the first write to slab or
// sizes, the spare pair's contents being nobody's state — so an epoch
// that fails leaves the replayer exactly at its predecessor.
type replayer struct {
	cur                *Snapshot // columns of the working epoch; ConeWords, coneSizes and RankPos stay nil
	slab, spare        []uint64  // cur's cone slab and the other half of the ping-pong pair
	sizes, spareSizes  []int32   // cone size by position, kept current from the flipped bits, and its other half
	m                  indexMap  // scratch: the alignment of the delta being applied
	promised, capacity int       // AS counts: the manifest's claim for the chain, and what the buffers are made for
}

// newReplayer notes the largest AS count the chain's manifest entries
// promise. Nothing has validated that number, so it sizes no buffer by
// itself: full bounds it by what the chain's own checkpoint decodes to.
func newReplayer(chain []EpochInfo) *replayer {
	r := &replayer{}
	for _, info := range chain {
		r.promised = max(r.promised, info.ASes)
	}
	return r
}

// zeroSpare readies the spare pair for an n-AS epoch: sizes of n
// entries, contents unspecified, and a slab of n rows of zeros. A slab
// just made is zero already and is not cleared again.
func (r *replayer) zeroSpare(n int) {
	words := (n + 63) / 64 * n
	if cap(r.spare) < words {
		r.spare = make([]uint64, words, max(words, (r.capacity+63)/64*r.capacity))
	} else {
		r.spare = r.spare[:words]
		clear(r.spare)
	}
	r.spareSizes = fit(r.spareSizes, n, r.capacity)
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
	// The working buffers are made for the chain's largest epoch, so no
	// epoch of it reallocates them — as far as the manifest's promise can
	// be believed: at most twice what this checkpoint holds (fit grows a
	// buffer on demand should the chain really outgrow that).
	r.capacity = min(max(r.promised, n), 2*n)
	// The slab and its sizes decode into the spare pair, so a run that
	// fails midway has written nothing the working epoch reads.
	r.zeroSpare(n)
	if err = decodeWordsRLE(p, r.spare, r.spareSizes, colConeWords); err != nil {
		return err
	}
	r.cur = s
	r.swap()
	return nil
}

// swap makes the spare slab and sizes the working pair.
func (r *replayer) swap() {
	r.slab, r.spare = r.spare, r.slab
	r.sizes, r.spareSizes = r.spareSizes, r.sizes
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
	m := r.m.align(old.ASNs, asns, r.capacity)
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
	wps := s.WordsPerCone()
	gaps, err := checkBitGaps(p, wps*n, dcolConeXor)
	if err != nil {
		return err
	}

	// Nothing below can fail. Cone slab: project the predecessor's rows
	// into the new index if the AS set moved, then flip the stored bits.
	if !m.identity() {
		r.zeroSpare(n)
		remapSlab(r.spare, r.spareSizes, r.slab, r.sizes, m)
		r.swap()
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

// remapSlab projects a cone slab and its row sizes into the index m
// aligns it to. Old sizes are read at old positions while new ones are
// written at new ones, hence two buffers. dst must be zero: a {self}
// row — almost every row — is one bit written at the new self position,
// and only the rest are read and remapped bit by bit.
func remapSlab(dst []uint64, dstSizes []int32, src []uint64, srcSizes []int32, m *indexMap) {
	n, nOld := len(dstSizes), len(srcSizes)
	wps, wpsOld := (n+63)/64, (nOld+63)/64
	for np := 0; np < n; np++ {
		switch op := int(m.newToOld[np]); {
		case op < 0:
			dstSizes[np] = 0
		case selfOnly(src, srcSizes, wpsOld, op):
			dst[np*wps+np>>6] = 1 << (uint(np) & 63)
			dstSizes[np] = 1
		default:
			dstSizes[np] = int32(remapRow(dst[np*wps:(np+1)*wps], src[op*wpsOld:(op+1)*wpsOld], m.oldToNew))
		}
	}
}

// snapshot hands out a copy of the working epoch: the result owns its
// slab and sizes (at exact capacity) and the replayer can go on to later
// epochs. It is the only place a chain pays for the rank permutation.
func (r *replayer) snapshot() *Snapshot {
	return r.handOut(slices.Clone(r.slab), slices.Clone(r.sizes))
}

// release hands out the working epoch itself. A replayer that has
// reached the epoch it was made for is spent, so the result takes its
// working slab and sizes instead of a copy of them, resliced to exact
// length and capacity — the arrays behind them may be as large as the
// chain's largest epoch. The replayer must not be used afterwards.
func (r *replayer) release() *Snapshot {
	s := r.handOut(r.slab[:len(r.slab):len(r.slab)], r.sizes[:len(r.sizes):len(r.sizes)])
	*r = replayer{}
	return s
}

// handOut completes the working epoch's columns with a slab, its sizes
// and the rank order they imply.
func (r *replayer) handOut(slab []uint64, sizes []int32) *Snapshot {
	s := *r.cur
	s.ConeWords = slab
	s.setConeSizes(sizes)
	s.RankPos = cone.RankPositions(sizes, s.TransitDegree)
	return &s
}
