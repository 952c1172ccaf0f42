package warehouse

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"slices"

	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/topology"
)

// On-disk segment layout (DESIGN.md §14). One segment file holds one
// epoch:
//
//	header:  magic "ASWH\x00SEG" | u16le version | u8 kind |
//	         u32le epoch | u32le base | u32le crc32(header so far)
//	blocks:  u8 colID (non-zero) | uvarint len | payload | u32le crc32(payload)
//	trailer: colID 0 | uvarint len=8 | u64le fnv64a(everything before
//	         the trailer's colID byte) | u32le crc32(payload)
//
// Every block is individually CRC-framed; the trailer hash covers the
// header and the block framing bytes the per-block CRCs do not, so a
// flipped length byte, a truncated tail, or a torn write is always
// detectable. A segment without a valid trailer never existed.

const (
	segVersion  = 1
	kindFull    = 1
	kindDelta   = 2
	trailerCol  = 0
	trailerSize = 8
)

var segMagic = [8]byte{'A', 'S', 'W', 'H', 0, 'S', 'E', 'G'}

// Column IDs. Full epochs carry the col* set; delta epochs carry the
// dcol* set plus the full clique/steps/scalars columns (small and
// unordered — deltas would not pay for themselves). The rank
// permutation has no column at all: the AS Rank order is a pure
// function of cone size, transit degree, and ASN, so readers derive it
// (Snapshot.Rank) instead of storing ~2.5 bytes per AS per epoch. ID 5
// is retired and must not be reused.
const (
	colASNs         = 1  // uvarint count, then ascending uvarint deltas
	colTransitDeg   = 2  // one svarint per position
	colDegree       = 3  // one svarint per position
	colConePrefixes = 4  // one svarint per position
	colClique       = 6  // uvarint count, then ascending uvarint deltas
	colStepNames    = 7  // uvarint count, then (uvarint len, bytes) each: stepTable.names
	colLinks        = 8  // uvarint count, then (uvarint dA, uvarint B, uvarint code) with code = stepTable index<<2 | rel
	colConeWords    = 9  // cone slab (wordsPerRow layout) in zero-run-length words: (flag 0, uvarint zeroRun) | (flag 1, uvarint n, n×u64le)
	colScalars      = 10 // uvarint pathCount, uvarint len(Links)

	dcolRemovedASNs = 11 // uvarint count, ascending uvarint deltas (ASNs leaving the index)
	dcolAddedASNs   = 12 // uvarint count, ascending uvarint deltas (ASNs entering)
	dcolTransitDeg  = 13 // sparse: uvarint count, then (uvarint dPos, svarint diff)
	dcolDegree      = 14 // sparse, same shape
	dcolConePref    = 15 // sparse, same shape
	dcolLinksRem    = 16 // uvarint count, (uvarint dA, uvarint B) in OLD positions
	dcolLinksAdd    = 17 // uvarint count, (uvarint dA, uvarint B, uvarint code) in NEW positions
	dcolLinksChg    = 18 // uvarint count, (uvarint dA, uvarint B, uvarint code) in NEW positions
	dcolConeXor     = 19 // flipped bits of newSlab XOR remap(oldSlab): uvarint word count, then ascending uvarint bit-index gaps
)

// appendBlock frames one column payload onto the segment buffer.
func appendBlock(seg []byte, colID byte, payload []byte) []byte {
	seg = append(seg, colID)
	seg = binary.AppendUvarint(seg, uint64(len(payload)))
	seg = append(seg, payload...)
	return binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
}

// encodeSegment assembles a complete segment file image from framed
// column payloads, returning the image and its content hash (the
// trailer's fnv64a, which the manifest records as the epoch hash).
func encodeSegment(kind byte, epoch, base uint32, cols []segColumn) ([]byte, uint64) {
	seg := make([]byte, 0, 1024)
	seg = append(seg, segMagic[:]...)
	seg = binary.LittleEndian.AppendUint16(seg, segVersion)
	seg = append(seg, kind)
	seg = binary.LittleEndian.AppendUint32(seg, epoch)
	seg = binary.LittleEndian.AppendUint32(seg, base)
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(seg))
	for _, c := range cols {
		seg = appendBlock(seg, c.id, c.payload)
	}
	h := fnv.New64a()
	h.Write(seg)
	sum := h.Sum64()
	var tp [trailerSize]byte
	binary.LittleEndian.PutUint64(tp[:], sum)
	seg = appendBlock(seg, trailerCol, tp[:])
	return seg, sum
}

type segColumn struct {
	id      byte
	payload []byte
}

// --- column encoders --------------------------------------------------

func encodeAscendingU32(out []byte, vs []uint32) []byte {
	out = binary.AppendUvarint(out, uint64(len(vs)))
	prev := uint32(0)
	for i, v := range vs {
		if i == 0 {
			out = binary.AppendUvarint(out, uint64(v))
		} else {
			out = binary.AppendUvarint(out, uint64(v-prev))
		}
		prev = v
	}
	return out
}

func encodeI32Column(out []byte, vs []int32) []byte {
	for _, v := range vs {
		out = binary.AppendVarint(out, int64(v))
	}
	return out
}

func encodeI64Column(out []byte, vs []int64) []byte {
	for _, v := range vs {
		out = binary.AppendVarint(out, v)
	}
	return out
}

func encodeStepNames(out []byte, names []string) []byte {
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, n := range names {
		out = binary.AppendUvarint(out, uint64(len(n)))
		out = append(out, n...)
	}
	return out
}

// stepTable is the step-name column of an epoch: the names of the steps
// its links carry, in order of first appearance over the sorted link
// column, and each step's index among them, which is what a link column
// writes for the step.
type stepTable struct {
	names []string
	index [core.StepPeer + 1]uint8
}

func newStepTable(links []LinkRec) *stepTable {
	t := &stepTable{}
	var seen [core.StepPeer + 1]bool
	for _, l := range links {
		if !seen[l.Step] {
			seen[l.Step] = true
			t.index[l.Step] = uint8(len(t.names))
			t.names = append(t.names, l.Step.String())
		}
	}
	return t
}

func encodeLinks(out []byte, links []LinkRec, steps *stepTable) []byte {
	out = binary.AppendUvarint(out, uint64(len(links)))
	prevA := int32(0)
	for _, l := range links {
		out = binary.AppendUvarint(out, uint64(l.A-prevA))
		out = binary.AppendUvarint(out, uint64(l.B))
		out = binary.AppendUvarint(out, uint64(steps.index[l.Step])<<2|uint64(l.Rel))
		prevA = l.A
	}
	return out
}

// posPair is a bare (A, B) position pair (removed-link encoding).
type posPair struct{ A, B int32 }

// encodePosPairs writes only the position pair of each link: a removed
// link's label is the predecessor's to know.
func encodePosPairs(out []byte, pairs []LinkRec) []byte {
	out = binary.AppendUvarint(out, uint64(len(pairs)))
	prevA := int32(0)
	for _, p := range pairs {
		out = binary.AppendUvarint(out, uint64(p.A-prevA))
		out = binary.AppendUvarint(out, uint64(p.B))
		prevA = p.A
	}
	return out
}

// wordsPerRow is the width in words of one row of an n-AS cone slab,
// the layout the cone columns are written in: member m of row p is bit
// m&63 of word p·wordsPerRow(n) + m>>6, and a row's last word holds no
// bit past member n-1.
func wordsPerRow(n int) int { return (n + 63) / 64 }

// wordRuns writes a word slab as alternating zero runs and literal runs,
// given only its non-zero words in ascending order: the words it is
// given gather into a literal run starting at word at, which is written,
// followed by a zero run, when a word arrives past its end.
type wordRuns struct {
	out []byte
	at  int
	lit []uint64
}

// word adds word i, non-zero, past every word added before.
func (r *wordRuns) word(i int, w uint64) {
	if i > r.at+len(r.lit) {
		r.zerosTo(i)
	}
	r.lit = append(r.lit, w)
}

// zerosTo writes the gathered literal run, then the words from its end
// up to word i as one zero run.
func (r *wordRuns) zerosTo(i int) {
	if len(r.lit) > 0 {
		r.out = append(r.out, 1)
		r.out = binary.AppendUvarint(r.out, uint64(len(r.lit)))
		for _, w := range r.lit {
			r.out = binary.LittleEndian.AppendUint64(r.out, w)
		}
		r.at += len(r.lit)
		r.lit = r.lit[:0]
	}
	if i > r.at {
		r.out = append(r.out, 0)
		r.out = binary.AppendUvarint(r.out, uint64(i-r.at))
		r.at = i
	}
}

// encodeWordsRLE writes a snapshot's cones as the words of the n × n-bit
// slab whose set bits they are, in alternating zero runs and literal
// runs — cone slabs are overwhelmingly zero words, so a year of epochs
// costs a small multiple of one. The slab is never built: each row's
// members are gathered into the words they land in, which come out
// ascending because the rows and each row's members do.
func encodeWordsRLE(out []byte, s *Snapshot) []byte {
	n := len(s.ASNs)
	wps := wordsPerRow(n)
	total := n * wps
	r := wordRuns{out: binary.AppendUvarint(out, uint64(total))}
	for p := 0; p < n; p++ {
		word, w := -1, uint64(0)
		for _, m := range s.coneRow(p) {
			if i := p*wps + int(m>>6); i != word {
				if w != 0 {
					r.word(word, w)
				}
				word, w = i, 0
			}
			w |= 1 << (uint(m) & 63)
		}
		if w != 0 {
			r.word(word, w)
		}
	}
	r.zerosTo(total)
	return r.out
}

// encodeConeXor writes the bits in which cur's cones differ from old's
// projected into cur's index, as ascending uvarint gaps over the global
// bit index of cur's slab layout (p·wordsPerRow·64 + m). An epoch's cone
// XOR flips a few hundred bits in a multi-megabit slab, so gaps beat
// even zero-run-length words by ~3x: each flipped bit costs the varint
// of its distance to the previous one, and untouched regions cost
// nothing at all. Each new row is merged with its predecessor row mapped
// through oldToNew, which keeps it ascending (both indexes are in ASN
// order) and drops the members that left, so the pass is one step per
// member and the slab is never built.
func encodeConeXor(out []byte, old, cur *Snapshot, m *indexMap) []byte {
	n := len(cur.ASNs)
	rowBits := uint64(wordsPerRow(n)) << 6
	out = binary.AppendUvarint(out, uint64(wordsPerRow(n)*n))
	prev := uint64(0)
	for np := 0; np < n; np++ {
		row, was := cur.coneRow(np), []int32(nil)
		if op := m.newToOld[np]; op >= 0 {
			was = old.coneRow(int(op))
		}
		for i, j := 0, 0; ; {
			for j < len(was) && m.oldToNew[was[j]] < 0 {
				j++
			}
			a, b := int32(math.MaxInt32), int32(math.MaxInt32)
			if i < len(row) {
				a = row[i]
			}
			if j < len(was) {
				b = m.oldToNew[was[j]]
			}
			if a == b {
				if a == math.MaxInt32 {
					break
				}
				i, j = i+1, j+1
				continue
			}
			flipped := min(a, b)
			if a < b {
				i++
			} else {
				j++
			}
			idx := uint64(np)*rowBits + uint64(flipped)
			out = binary.AppendUvarint(out, idx-prev)
			prev = idx
		}
	}
	return out
}

// sparseEntry is one changed cell of a sparse column delta: the
// position in the new index and the value diff against the old value
// (or against zero for an AS that just entered the index).
type sparseEntry struct {
	pos  int32
	diff int64
}

func encodeSparse(out []byte, entries []sparseEntry) []byte {
	out = binary.AppendUvarint(out, uint64(len(entries)))
	prev := int32(0)
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(e.pos-prev))
		out = binary.AppendVarint(out, e.diff)
		prev = e.pos
	}
	return out
}

func encodeScalars(out []byte, s *Snapshot) []byte {
	out = binary.AppendUvarint(out, uint64(s.PathCount))
	return binary.AppendUvarint(out, uint64(len(s.Links)))
}

// encodeFull renders a snapshot as a full epoch's column set.
func encodeFull(s *Snapshot) []segColumn {
	steps := newStepTable(s.Links)
	return []segColumn{
		{colASNs, encodeAscendingU32(nil, s.ASNs)},
		{colTransitDeg, encodeI32Column(nil, s.TransitDegree)},
		{colDegree, encodeI32Column(nil, s.Degree)},
		{colConePrefixes, encodeI64Column(nil, s.ConePrefixes)},
		{colClique, encodeAscendingU32(nil, s.Clique)},
		{colStepNames, encodeStepNames(nil, steps.names)},
		{colLinks, encodeLinks(nil, s.Links, steps)},
		{colConeWords, encodeWordsRLE(nil, s)},
		{colScalars, encodeScalars(nil, s)},
	}
}

// indexMap aligns two interned indexes: oldToNew[p] is old position
// p's position in the new index (-1 when the AS left), newToOld the
// inverse (-1 when the AS is new).
type indexMap struct {
	oldToNew, newToOld []int32
	removed, added     []uint32
}

// align points m at a new pair of indexes, reusing its slices where
// they are long enough; whatever an earlier pair left in them is
// overwritten.
func (m *indexMap) align(oldASNs, newASNs []uint32) *indexMap {
	m.oldToNew = slices.Grow(m.oldToNew[:0], len(oldASNs))[:len(oldASNs)]
	m.newToOld = slices.Grow(m.newToOld[:0], len(newASNs))[:len(newASNs)]
	m.removed, m.added = m.removed[:0], m.added[:0]
	i, j := 0, 0
	for i < len(oldASNs) || j < len(newASNs) {
		switch {
		case j >= len(newASNs) || (i < len(oldASNs) && oldASNs[i] < newASNs[j]):
			m.oldToNew[i] = -1
			m.removed = append(m.removed, oldASNs[i])
			i++
		case i >= len(oldASNs) || newASNs[j] < oldASNs[i]:
			m.newToOld[j] = -1
			m.added = append(m.added, newASNs[j])
			j++
		default:
			m.oldToNew[i] = int32(j)
			m.newToOld[j] = int32(i)
			i++
			j++
		}
	}
	return m
}

// sparseDiff computes the sparse delta of an int64-view column aligned
// to the new index.
func sparseDiff(oldVals func(int32) int64, newVals func(int32) int64, m *indexMap, newN int) []sparseEntry {
	var out []sparseEntry
	for p := int32(0); p < int32(newN); p++ {
		var base int64
		if op := m.newToOld[p]; op >= 0 {
			base = oldVals(op)
		}
		if d := newVals(p) - base; d != 0 {
			out = append(out, sparseEntry{pos: p, diff: d})
		}
	}
	return out
}

// linkDiff is the link-level difference between two consecutive
// epochs. Both the delta encoder and the history's change list are
// renderings of it, so Append computes it once.
type linkDiff struct {
	removed        []LinkRec               // old positions, old labels
	added, changed []LinkRec               // new positions, new labels
	changedFrom    []topology.Relationship // changed[i]'s relationship in the old epoch
}

// diffLinks three-way-merges two sorted link lists. The first epoch
// (nil old) has nothing to differ from.
func diffLinks(old, cur *Snapshot) linkDiff {
	var d linkDiff
	if old == nil {
		return d
	}
	i, j := 0, 0
	for i < len(old.Links) || j < len(cur.Links) {
		var cmp int
		switch {
		case i >= len(old.Links):
			cmp = 1
		case j >= len(cur.Links):
			cmp = -1
		default:
			ol, nl := old.Links[i], cur.Links[j]
			oa, ob := old.ASNs[ol.A], old.ASNs[ol.B]
			na, nb := cur.ASNs[nl.A], cur.ASNs[nl.B]
			switch {
			case oa < na || (oa == na && ob < nb):
				cmp = -1
			case oa > na || (oa == na && ob > nb):
				cmp = 1
			}
		}
		switch cmp {
		case -1:
			d.removed = append(d.removed, old.Links[i])
			i++
		case 1:
			d.added = append(d.added, cur.Links[j])
			j++
		default:
			ol, nl := old.Links[i], cur.Links[j]
			if ol.Rel != nl.Rel || ol.Step != nl.Step {
				d.changed = append(d.changed, nl)
				d.changedFrom = append(d.changedFrom, ol.Rel)
			}
			i++
			j++
		}
	}
	return d
}

// encodeDelta renders cur as a delta epoch against old, given the two
// alignments Append has already made: m of the AS indexes, d of the
// link lists.
func encodeDelta(old, cur *Snapshot, m *indexMap, d linkDiff) []segColumn {
	newN := len(cur.ASNs)

	tdDiff := sparseDiff(
		func(p int32) int64 { return int64(old.TransitDegree[p]) },
		func(p int32) int64 { return int64(cur.TransitDegree[p]) }, m, newN)
	degDiff := sparseDiff(
		func(p int32) int64 { return int64(old.Degree[p]) },
		func(p int32) int64 { return int64(cur.Degree[p]) }, m, newN)
	cpDiff := sparseDiff(
		func(p int32) int64 { return old.ConePrefixes[p] },
		func(p int32) int64 { return cur.ConePrefixes[p] }, m, newN)

	steps := newStepTable(cur.Links)
	return []segColumn{
		{dcolRemovedASNs, encodeAscendingU32(nil, m.removed)},
		{dcolAddedASNs, encodeAscendingU32(nil, m.added)},
		{dcolTransitDeg, encodeSparse(nil, tdDiff)},
		{dcolDegree, encodeSparse(nil, degDiff)},
		{dcolConePref, encodeSparse(nil, cpDiff)},
		{colClique, encodeAscendingU32(nil, cur.Clique)},
		{colStepNames, encodeStepNames(nil, steps.names)},
		{dcolLinksRem, encodePosPairs(nil, d.removed)},
		{dcolLinksAdd, encodeLinks(nil, d.added, steps)},
		{dcolLinksChg, encodeLinks(nil, d.changed, steps)},
		{dcolConeXor, encodeConeXor(nil, old, cur, m)},
		{colScalars, encodeScalars(nil, cur)},
	}
}
