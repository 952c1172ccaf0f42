package warehouse

import (
	"encoding/binary"
	"math/bits"
	"slices"
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
// that adds or removes ASes first remaps both in place from the first
// position it moves (remap), and a full epoch decodes over them. Every
// epoch is applied validate-then-mutate — all columns decoded and
// cross-checked before the first write to slab or sizes — so an epoch
// that fails leaves the replayer exactly at its predecessor.
type replayer struct {
	cur   *Snapshot // columns of the working epoch; ConeWords and coneSizes stay nil
	slab  []uint64  // cur's cone slab
	sizes []int32   // cone size by position, kept current from the flipped bits
	// Scratch for remap: the predecessor's rows from the first moved
	// position on, and their sizes, set aside while the rows below move.
	aside              []uint64
	asideSizes         []int32
	m                  indexMap // scratch: the alignment of the delta being applied
	promised, capacity int      // AS counts: the manifest's claim for the chain, and what the buffers are made for
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

// slabWords is the length of an n-AS cone slab.
func slabWords(n int) int { return (n + 63) / 64 * n }

// fit reslices buf to n elements, replacing it (with at least hint
// capacity) when it is too small. The contents are unspecified; a
// replacement is zero.
func fit[T any](buf []T, n, hint int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, hint))
	}
	return buf[:n]
}

// grow is fit keeping buf's contents: a replacement starts with a copy
// of them. Elements past buf's length are unspecified.
func grow[T any](buf []T, n, hint int) []T {
	if cap(buf) < n {
		return append(make([]T, 0, max(n, hint)), buf...)[:n]
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
	if s.TransitDegree, err = decodeCounts[int32](p, n, colTransitDeg); err != nil {
		return err
	}
	if p, err = col(cols, colDegree); err != nil {
		return err
	}
	if s.Degree, err = decodeCounts[int32](p, n, colDegree); err != nil {
		return err
	}
	if p, err = col(cols, colConePrefixes); err != nil {
		return err
	}
	if s.ConePrefixes, err = decodeCounts[int64](p, n, colConePrefixes); err != nil {
		return err
	}
	steps, links, err := decodeShared(cols, s)
	if err != nil {
		return err
	}
	if p, err = col(cols, colLinks); err != nil {
		return err
	}
	if s.Links, err = decodeLinks(p, n, steps, colLinks); err != nil {
		return err
	}
	if err = checkLinkCount(links, s.Links); err != nil {
		return err
	}
	if p, err = col(cols, colConeWords); err != nil {
		return err
	}
	words := slabWords(n)
	runs, err := checkWordsRLE(p, words, colConeWords)
	if err != nil {
		return err
	}

	// Nothing below can fail. The working buffers are made for the
	// chain's largest epoch, so no epoch of it reallocates them — as far
	// as the manifest's promise can be believed: at most twice what this
	// checkpoint holds (fit and grow replace a buffer on demand should
	// the chain really outgrow that).
	r.capacity = min(max(r.promised, n), 2*n)
	zeroed := cap(r.slab) < words // a slab made now holds zeros already
	r.slab = fit(r.slab, words, slabWords(r.capacity))
	r.sizes = fit(r.sizes, n, r.capacity)
	decodeWordsRLE(runs, r.slab, r.sizes, zeroed)
	r.cur = s
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
	if p, err = col(cols, dcolTransitDeg); err != nil {
		return err
	}
	if err = applySparse(p, s.TransitDegree, dcolTransitDeg); err != nil {
		return err
	}
	if p, err = col(cols, dcolDegree); err != nil {
		return err
	}
	if err = applySparse(p, s.Degree, dcolDegree); err != nil {
		return err
	}
	if p, err = col(cols, dcolConePref); err != nil {
		return err
	}
	if err = applySparse(p, s.ConePrefixes, dcolConePref); err != nil {
		return err
	}

	steps, links, err := decodeShared(cols, s)
	if err != nil {
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
	addLinks, err := decodeLinks(p, n, steps, dcolLinksAdd)
	if err != nil {
		return err
	}
	if p, err = col(cols, dcolLinksChg); err != nil {
		return err
	}
	chgLinks, err := decodeLinks(p, n, steps, dcolLinksChg)
	if err != nil {
		return err
	}
	if s.Links, err = rebuildLinks(old, m, remLinks, addLinks, chgLinks); err != nil {
		return err
	}
	if err = checkLinkCount(links, s.Links); err != nil {
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
		r.remap(m)
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

// remap projects the working slab and sizes, in place, into the index m
// aligns the working epoch's to (DESIGN.md §14). The first position m
// does not map to itself, f, splits the rows. A row below f keeps its
// position and every member below f, so only its words from f>>6 on are
// read and only a member there is remapped. The rows from f on are set
// aside and rebuilt at their new positions, a {self} row as one bit.
// When the row width changes, the rows below f move to the new one —
// walking down when rows widen and up when they narrow, so no row is
// overwritten before it is read. New ASes carry new, high numbers, so f
// is usually near the end of the index and most rows are not touched.
func (r *replayer) remap(m *indexMap) {
	n, nOld := len(m.newToOld), len(m.oldToNew)
	wps, wpsOld := (n+63)/64, (nOld+63)/64
	f := m.firstMoved()

	// The scratch is made once per chain where it can be: twice the rows
	// this delta moves, up to a whole slab, so a later delta that moves
	// somewhat more reuses it.
	moved := nOld - f
	r.aside = fit(r.aside, moved*wpsOld, min(2*moved*wpsOld, slabWords(r.capacity)))
	copy(r.aside, r.slab[f*wpsOld:nOld*wpsOld])
	r.asideSizes = fit(r.asideSizes, moved, min(2*moved, r.capacity))
	copy(r.asideSizes, r.sizes[f:nOld])
	// Both layouts must fit while the rows below f move between them.
	r.slab = grow(r.slab, max(n*wps, nOld*wpsOld), slabWords(r.capacity))
	r.sizes = grow(r.sizes, max(n, nOld), r.capacity)

	lo, under := f>>6, uint64(1)<<(uint(f)&63)-1 // the word holding f, and its bits below f
	tail := make([]uint64, wpsOld-lo)
	np, end, step := 0, f, 1
	if wps > wpsOld {
		np, end, step = f-1, -1, -1
	}
	for ; np != end; np += step {
		src := r.slab[np*wpsOld : (np+1)*wpsOld]
		hit := false // a member at f or past it
		for i, w := range src[lo:] {
			if i == 0 {
				w &^= under
			}
			if w != 0 {
				hit = true
				break
			}
		}
		if !hit && wps == wpsOld {
			continue
		}
		copy(tail, src[lo:])
		dst := r.slab[np*wps : (np+1)*wps]
		copy(dst[:lo], src[:lo])
		clear(dst[lo:])
		if len(tail) > 0 {
			if lo < wps {
				dst[lo] = tail[0] & under
			}
			tail[0] &^= under
			members := 0
			for _, w := range tail {
				members += bits.OnesCount64(w)
			}
			r.sizes[np] -= int32(members - remapRow(dst, tail, m.oldToNew[lo<<6:]))
		}
	}

	clear(r.slab[f*wps : n*wps])
	for np := f; np < n; np++ {
		op := int(m.newToOld[np])
		if op < 0 {
			r.sizes[np] = 0
			continue
		}
		row, size := r.aside[(op-f)*wpsOld:(op-f+1)*wpsOld], r.asideSizes[op-f]
		if selfOnly(row, size, op) {
			r.slab[np*wps+np>>6] = 1 << (uint(np) & 63)
			r.sizes[np] = 1
		} else {
			r.sizes[np] = int32(remapRow(r.slab[np*wps:(np+1)*wps], row, m.oldToNew))
		}
	}
	r.slab, r.sizes = r.slab[:n*wps], r.sizes[:n]
}

// snapshot hands out a copy of the working epoch: the result owns its
// slab and sizes (at exact capacity) and the replayer can go on to later
// epochs.
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

// handOut completes the working epoch's columns with a slab and its
// sizes.
func (r *replayer) handOut(slab []uint64, sizes []int32) *Snapshot {
	s := *r.cur
	s.ConeWords = slab
	s.setConeSizes(sizes)
	return &s
}
