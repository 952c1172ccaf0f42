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
// The AS and clique columns of cur are immutable values, replaced whole
// by each epoch (an unchanged AS set shares the predecessor's column).
// The metric columns, the links and the cones are reused: each is a
// working column and a spare one. A full epoch decodes its metrics,
// links and cones into the spares; a delta carries the working metrics
// into the spare columns and applies its sparse diffs there, rebuilds
// the working links, relabelled into the new index, with its removed,
// added and changed links into the spare array, and merges the working
// member lists (start, members) with its flipped bits into the spare
// pair. Either then swaps working and spare, and that swap is the
// epoch's only write to what the replayer holds: every epoch is applied
// validate-then-mutate — all columns decoded and cross-checked before
// it — so an epoch that fails leaves the replayer exactly at its
// predecessor. The predecessor's columns stay readable until the epoch
// after its successor is written, which is as long as Open diffs them
// and extends the History by them. Metric and link columns handed out
// by snapshot are the caller's: they are not made the spares when the
// next epoch lands.
type replayer struct {
	cur            *Snapshot // the working epoch; its metric, link and cone columns are the working ones
	spareLinks     []LinkRec // the array the next epoch's links are written into
	spareTransit   []int32   // the arrays the next epoch's metrics are written into
	spareDegree    []int32
	sparePrefixes  []int64
	lent           bool    // cur's metric and link columns were handed out by snapshot
	start, members []int32 // cur's cones
	spareStart     []int32 // the arrays the next epoch's cones are written into
	spareMembers   []int32
	seg            []byte      // the segment image being replayed; no column aliases it
	added, changed []LinkRec   // scratch: the link columns of the delta being applied
	m              indexMap    // scratch: the alignment of the delta being applied
	ranks          rankScratch // scratch: Open's ranking of each epoch it indexes
}

// reuse returns buf emptied, with room for n elements: buf's own array
// if it has the room, else a new one with a quarter more, so a column
// that grows along a chain moves rarely. The first array is made a
// quarter over as well: the replayer writes into each array again at
// later epochs, and an exact first array is outgrown by the second
// epoch after it (DESIGN.md §14). Nothing is copied, as the replayer
// keeps nothing of what a spare array held (slices.Grow would copy, and
// in a -race build allocate twice).
func reuse[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:0]
	}
	return make([]T, 0, n+n/4)
}

// spare returns the spare pair resized to n+1 offsets and k members,
// its contents unspecified.
func (r *replayer) spare(n, k int) (start, members []int32) {
	return reuse(r.spareStart, n+1)[:n+1], reuse(r.spareMembers, k)[:k]
}

// spareMetrics resizes the spare metric columns to n entries, contents
// unspecified, and hands them to s.
func (r *replayer) spareMetrics(s *Snapshot, n int) {
	r.spareTransit = reuse(r.spareTransit, n)[:n]
	r.spareDegree = reuse(r.spareDegree, n)[:n]
	r.sparePrefixes = reuse(r.sparePrefixes, n)[:n]
	s.TransitDegree, s.Degree, s.ConePrefixes = r.spareTransit, r.spareDegree, r.sparePrefixes
}

// swap makes start and members the working cones and the pair they
// replace the spare one.
func (r *replayer) swap(start, members []int32) {
	r.spareStart, r.spareMembers = r.start, r.members
	r.start, r.members = start, members
}

// land makes s, whose metrics and links were written into the spare
// arrays, the working epoch with the working cones, and the metric and
// link columns it replaces the spare ones unless they were handed out.
func (r *replayer) land(s *Snapshot) {
	var was Snapshot // nothing to reuse: no working epoch yet, or its columns are the caller's
	if r.cur != nil && !r.lent {
		was = *r.cur
	}
	r.spareLinks, r.lent = was.Links, false
	r.spareTransit, r.spareDegree, r.sparePrefixes = was.TransitDegree, was.Degree, was.ConePrefixes
	s.ConeStart, s.ConeMembers = r.start, r.members
	r.cur = s
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
	r.spareMetrics(s, n)

	if p, err = col(cols, colTransitDeg); err != nil {
		return err
	}
	if err = decodeCounts(p, s.TransitDegree, colTransitDeg); err != nil {
		return err
	}
	if p, err = col(cols, colDegree); err != nil {
		return err
	}
	if err = decodeCounts(p, s.Degree, colDegree); err != nil {
		return err
	}
	if p, err = col(cols, colConePrefixes); err != nil {
		return err
	}
	if err = decodeCounts(p, s.ConePrefixes, colConePrefixes); err != nil {
		return err
	}
	steps, links, err := decodeShared(cols, s)
	if err != nil {
		return err
	}
	if p, err = col(cols, colLinks); err != nil {
		return err
	}
	if s.Links, err = decodeLinks(p, n, steps, colLinks, r.spareLinks); err != nil {
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
	r.land(s)
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

	// Dense columns: carry old values across surviving positions (an
	// admitted AS starts at zero), then apply sparse diffs in new
	// positions.
	r.spareMetrics(s, n)
	for np := 0; np < n; np++ {
		var td, deg int32
		var pref int64
		if op := m.newToOld[np]; op >= 0 {
			td, deg, pref = old.TransitDegree[op], old.Degree[op], old.ConePrefixes[op]
		}
		s.TransitDegree[np], s.Degree[np], s.ConePrefixes[np] = td, deg, pref
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
	if r.added, err = decodeLinks(p, n, steps, dcolLinksAdd, r.added); err != nil {
		return err
	}
	if p, err = col(cols, dcolLinksChg); err != nil {
		return err
	}
	if r.changed, err = decodeLinks(p, n, steps, dcolLinksChg, r.changed); err != nil {
		return err
	}
	if s.Links, err = rebuildLinks(old, m, remLinks, r.added, r.changed, r.spareLinks); err != nil {
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
	r.land(s)
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

// snapshot hands out the working epoch: the result owns its metric and
// link columns, which the replayer stops writing into, and an exact-size
// copy of its member lists, and the replayer can go on to later epochs.
// The metrics and links are handed over, not copied, because both
// callers drop the replayer next: a copy would be four more columns per
// replay, and their sources garbage at once.
func (r *replayer) snapshot() *Snapshot {
	s := *r.cur
	// An append by the caller moves, never writes past a lent column.
	s.Links = slices.Clip(s.Links)
	s.TransitDegree, s.Degree, s.ConePrefixes = slices.Clip(s.TransitDegree), slices.Clip(s.Degree), slices.Clip(s.ConePrefixes)
	r.lent = true
	s.ConeStart = append(make([]int32, 0, len(r.start)), r.start...)
	s.ConeMembers = append(make([]int32, 0, len(r.members)), r.members...)
	return &s
}
