package warehouse

import (
	"encoding/binary"
	"math"
	"slices"
)

// replayer is the one mutable working epoch a chain of segments is
// replayed into (DESIGN.md §14): Open, Store.Snapshot and the fuzz
// target each make their own and feed it one segment after another.
//
// The small columns of cur are immutable values, replaced whole by each
// epoch, so a predecessor's columns stay readable after the next epoch
// lands (History keeps them). The cones are the only state the replayer
// reuses memory for: the working epoch's member lists (start, members)
// and a spare pair of arrays. A full epoch decodes into the spare pair;
// a delta merges the working lists, relabelled into the new index, with
// its flipped bits into the spare pair. Either then swaps the two pairs,
// and that swap is the epoch's only write to what the replayer holds:
// every epoch is applied validate-then-mutate — all columns decoded and
// cross-checked before it — so an epoch that fails leaves the replayer
// exactly at its predecessor.
type replayer struct {
	cur            *Snapshot // columns of the working epoch; ConeStart and ConeMembers stay nil
	start, members []int32   // cur's cones
	spareStart     []int32   // the arrays the next epoch's cones are written into
	spareMembers   []int32
	m              indexMap // scratch: the alignment of the delta being applied
}

// spare returns the spare pair resized to n+1 offsets and k members,
// its contents unspecified.
func (r *replayer) spare(n, k int) (start, members []int32) {
	return slices.Grow(r.spareStart[:0], n+1)[:n+1], slices.Grow(r.spareMembers[:0], k)[:k]
}

// swap makes start and members the working cones and the pair they
// replace the spare one.
func (r *replayer) swap(start, members []int32) {
	r.spareStart, r.spareMembers = r.start, r.members
	r.start, r.members = start, members
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
	runs, set, err := checkWordsRLE(p, n, colConeWords)
	if err != nil {
		return err
	}

	// Nothing below can fail.
	start, members := r.spare(n, set)
	decodeWordsRLE(runs, n, start, members)
	r.swap(start, members)
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
	m := r.m.align(old.ASNs, asns)
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
	gaps, flips, err := checkBitGaps(p, n, dcolConeXor)
	if err != nil {
		return err
	}

	// Nothing below can fail.
	r.mergeCones(gaps, flips, m)
	r.cur = s
	return nil
}

// mergeCones writes the successor's cones into the spare pair and swaps
// them in: each new row is its predecessor row relabelled through m
// (members that left drop out; the map is monotone, so the row stays
// ascending) merged with the row's flipped bits, a member on one side
// only being kept and one on both dropped. gaps, holding flips bits,
// has passed checkBitGaps for m's new index.
func (r *replayer) mergeCones(gaps []byte, flips int, m *indexMap) {
	n := len(m.newToOld)
	rowBits := uint64(wordsPerRow(n)) << 6
	start, members := r.spare(n, len(r.members)+flips)
	members = members[:0]
	bit, more := uint64(0), false // the next flipped bit, if any
	next := func() {
		if more = len(gaps) > 0; more {
			gap, k := binary.Uvarint(gaps)
			gaps = gaps[k:]
			bit += gap
		}
	}
	next()
	for np := 0; np < n; np++ {
		start[np] = int32(len(members))
		var was []int32
		if op := m.newToOld[np]; op >= 0 {
			was = r.members[r.start[op]:r.start[op+1]]
		}
		rowEnd := uint64(np+1) * rowBits
		if !more || bit >= rowEnd { // no flip in this row: relabel it
			for _, o := range was {
				if q := m.oldToNew[o]; q >= 0 {
					members = append(members, q)
				}
			}
			continue
		}
		for j := 0; ; {
			for j < len(was) && m.oldToNew[was[j]] < 0 {
				j++
			}
			a, b := int32(math.MaxInt32), int32(math.MaxInt32)
			if j < len(was) {
				a = m.oldToNew[was[j]]
			}
			if more && bit < rowEnd {
				b = int32(bit - uint64(np)*rowBits)
			}
			if a == math.MaxInt32 && b == math.MaxInt32 {
				break
			}
			if a <= b {
				j++
			}
			if b <= a {
				next()
			}
			if a != b {
				members = append(members, min(a, b))
			}
		}
	}
	start[n] = int32(len(members))
	r.swap(start, members)
}

// snapshot hands out a copy of the working epoch: the result owns its
// member lists, at exact size, and the replayer can go on to later
// epochs.
func (r *replayer) snapshot() *Snapshot {
	s := *r.cur
	s.ConeStart = append(make([]int32, 0, len(r.start)), r.start...)
	s.ConeMembers = append(make([]int32, 0, len(r.members)), r.members...)
	return &s
}
