package warehouse

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/bits"

	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/topology"
)

// segHeader is the fixed-size decoded prefix of a segment file.
type segHeader struct {
	kind        byte
	epoch, base uint32
}

const segHeaderSize = 8 + 2 + 1 + 4 + 4 + 4 // magic, version, kind, epoch, base, crc

// decodeReader walks a byte image with offset-carrying errors — every
// failure names the byte offset so a corrupted segment is diagnosable
// from the error string alone.
type decodeReader struct {
	buf []byte
	off int
}

func (r *decodeReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("warehouse: truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *decodeReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("warehouse: truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// bytes takes the next n bytes. n comes straight off the wire (a block
// or string length no checksum has covered yet), so the bound is
// written so that it cannot overflow.
func (r *decodeReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.off {
		return nil, fmt.Errorf("warehouse: need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// count reads an entry count and bounds it by the bytes that follow it
// — every entry encodes to at least one — so a corrupt count fails here
// instead of sizing an allocation.
func (r *decodeReader) count() (uint64, error) {
	at := r.off
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if rest := len(r.buf) - r.off; n > uint64(rest) {
		return 0, fmt.Errorf("warehouse: count %d at offset %d exceeds the %d bytes that follow", n, at, rest)
	}
	return n, nil
}

// parseSegment validates a raw segment image end to end: header CRC,
// per-block CRCs, and the fnv64a trailer. It returns the header, the
// column payloads, and the content hash. Any framing or checksum
// failure returns an error (the store's recovery path treats that as
// "this epoch never landed").
func parseSegment(raw []byte) (segHeader, map[byte][]byte, uint64, error) {
	var hdr segHeader
	if len(raw) < segHeaderSize {
		return hdr, nil, 0, fmt.Errorf("warehouse: segment too short: %d bytes, want header of %d", len(raw), segHeaderSize)
	}
	if string(raw[:8]) != string(segMagic[:]) {
		return hdr, nil, 0, fmt.Errorf("warehouse: bad magic at offset 0: %q", raw[:8])
	}
	if v := binary.LittleEndian.Uint16(raw[8:]); v != segVersion {
		return hdr, nil, 0, fmt.Errorf("warehouse: unsupported segment version %d at offset 8", v)
	}
	hdr.kind = raw[10]
	hdr.epoch = binary.LittleEndian.Uint32(raw[11:])
	hdr.base = binary.LittleEndian.Uint32(raw[15:])
	if got, want := binary.LittleEndian.Uint32(raw[19:]), crc32.ChecksumIEEE(raw[:19]); got != want {
		return hdr, nil, 0, fmt.Errorf("warehouse: header crc mismatch at offset 19: got %08x want %08x", got, want)
	}
	if hdr.kind != kindFull && hdr.kind != kindDelta {
		return hdr, nil, 0, fmt.Errorf("warehouse: unknown segment kind %d at offset 10", hdr.kind)
	}

	cols := make(map[byte][]byte)
	r := &decodeReader{buf: raw, off: segHeaderSize}
	for {
		blockStart := r.off
		idb, err := r.bytes(1)
		if err != nil {
			return hdr, nil, 0, fmt.Errorf("warehouse: segment ends without trailer: %w", err)
		}
		id := idb[0]
		n, err := r.uvarint()
		if err != nil {
			return hdr, nil, 0, fmt.Errorf("warehouse: block %d at offset %d: %w", id, blockStart, err)
		}
		payload, err := r.bytes(int(n))
		if err != nil {
			return hdr, nil, 0, fmt.Errorf("warehouse: block %d payload at offset %d: %w", id, blockStart, err)
		}
		crcb, err := r.bytes(4)
		if err != nil {
			return hdr, nil, 0, fmt.Errorf("warehouse: block %d crc at offset %d: %w", id, blockStart, err)
		}
		if got, want := binary.LittleEndian.Uint32(crcb), crc32.ChecksumIEEE(payload); got != want {
			return hdr, nil, 0, fmt.Errorf("warehouse: block %d crc mismatch at offset %d: got %08x want %08x", id, blockStart, got, want)
		}
		if id == trailerCol {
			if len(payload) != trailerSize {
				return hdr, nil, 0, fmt.Errorf("warehouse: trailer at offset %d has %d bytes, want %d", blockStart, len(payload), trailerSize)
			}
			h := fnv.New64a()
			h.Write(raw[:blockStart])
			if got, want := binary.LittleEndian.Uint64(payload), h.Sum64(); got != want {
				return hdr, nil, 0, fmt.Errorf("warehouse: trailer hash mismatch at offset %d: got %016x want %016x", blockStart, got, want)
			}
			if r.off != len(raw) {
				return hdr, nil, 0, fmt.Errorf("warehouse: %d trailing bytes after trailer at offset %d", len(raw)-r.off, r.off)
			}
			return hdr, cols, binary.LittleEndian.Uint64(payload), nil
		}
		if _, dup := cols[id]; dup {
			return hdr, nil, 0, fmt.Errorf("warehouse: duplicate block %d at offset %d", id, blockStart)
		}
		cols[id] = payload
	}
}

// col fetches a required column payload.
func col(cols map[byte][]byte, id byte) ([]byte, error) {
	p, ok := cols[id]
	if !ok {
		return nil, fmt.Errorf("warehouse: missing column %d", id)
	}
	return p, nil
}

// --- column decoders --------------------------------------------------

func decodeAscendingU32(payload []byte, id byte) ([]uint32, error) {
	r := &decodeReader{buf: payload}
	n, err := r.count()
	if err != nil {
		return nil, fmt.Errorf("warehouse: column %d count: %w", id, err)
	}
	out := make([]uint32, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: column %d entry %d: %w", id, i, err)
		}
		if i > 0 && d == 0 {
			return nil, fmt.Errorf("warehouse: column %d entry %d: not strictly ascending", id, i)
		}
		// d is bounded first so the sum cannot wrap back into range.
		if d > 0xFFFFFFFF || prev+d > 0xFFFFFFFF {
			return nil, fmt.Errorf("warehouse: column %d entry %d: value %d+%d overflows uint32", id, i, prev, d)
		}
		v := prev + d
		out = append(out, uint32(v))
		prev = v
	}
	return out, nil
}

// decodeCounts reads a column of n counts — degrees, cone-prefix totals
// — refusing a negative value or one the column's type cannot hold
// rather than narrowing it.
func decodeCounts[T int32 | int64](payload []byte, n int, id byte) ([]T, error) {
	r := &decodeReader{buf: payload}
	out := make([]T, n)
	for i := range out {
		at := r.off
		v, err := r.varint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: column %d entry %d: %w", id, i, err)
		}
		if v < 0 || int64(T(v)) != v {
			return nil, fmt.Errorf("warehouse: column %d entry %d at offset %d: count %d out of range", id, i, at, v)
		}
		out[i] = T(v)
	}
	return out, nil
}

// decodeStepNames reads the step-name column as the steps the link
// columns index, refusing a name no core.Step has.
func decodeStepNames(payload []byte) ([]core.Step, error) {
	r := &decodeReader{buf: payload}
	cnt, err := r.count()
	if err != nil {
		return nil, fmt.Errorf("warehouse: step-name column count: %w", err)
	}
	out := make([]core.Step, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		l, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: step-name %d length: %w", i, err)
		}
		at := r.off
		b, err := r.bytes(int(l))
		if err != nil {
			return nil, fmt.Errorf("warehouse: step-name %d: %w", i, err)
		}
		step, ok := core.ParseStep(string(b))
		if !ok {
			return nil, fmt.Errorf("warehouse: step-name %d at offset %d: no step is named %q", i, at, b)
		}
		out = append(out, step)
	}
	return out, nil
}

// nextPos advances a delta-coded position by a gap read off the wire,
// reporting whether the result stays inside [0, n). The comparison is
// done before the add, in uint64, so no gap can wrap into range.
func nextPos(prev int32, gap uint64, n int) (int32, bool) {
	if gap >= uint64(n) || uint64(prev)+gap >= uint64(n) {
		return 0, false
	}
	return prev + int32(gap), true
}

// pairAfter reports whether the link (a, b) may follow (prevA, prevB)
// in a link column: it is ordered A < B and sorts strictly after its
// predecessor (first is set for the first entry, which has none). A
// column that breaks either rule was not written by encodeLinks, and
// readers rely on both: rebuildLinks merges by that order, and a
// snapshot's adjacency rows come out ascending only from it.
func pairAfter(a, b, prevA, prevB int32, first bool) bool {
	return a < b && (first || a > prevA || a == prevA && b > prevB)
}

// decodeLinks reads a link column of an n-AS epoch into dst's array,
// grown if the column holds more links than it has room for.
func decodeLinks(payload []byte, n int, steps []core.Step, id byte, dst []LinkRec) ([]LinkRec, error) {
	r := &decodeReader{buf: payload}
	cnt, err := r.count()
	if err != nil {
		return nil, fmt.Errorf("warehouse: link column %d count: %w", id, err)
	}
	out := reuse(dst, int(cnt))
	prevA, prevB := int32(0), int32(0)
	for i := uint64(0); i < cnt; i++ {
		dA, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: %w", id, i, err)
		}
		b, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: %w", id, i, err)
		}
		code, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: %w", id, i, err)
		}
		a, ok := nextPos(prevA, dA, n)
		rel := topology.Relationship(code & 3)
		step := code >> 2
		if !ok || b >= uint64(n) {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: positions (%d+%d,%d) out of range [0,%d)", id, i, prevA, dA, b, n)
		}
		if rel == topology.None {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: invalid relationship code %d", id, i, rel)
		}
		if step >= uint64(len(steps)) {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: step %d out of range [0,%d)", id, i, step, len(steps))
		}
		if !pairAfter(a, int32(b), prevA, prevB, i == 0) {
			return nil, fmt.Errorf("warehouse: link column %d entry %d: (%d,%d) is not an ordered pair sorting after (%d,%d)", id, i, a, b, prevA, prevB)
		}
		out = append(out, LinkRec{A: a, B: int32(b), Rel: rel, Step: steps[step]})
		prevA, prevB = a, int32(b)
	}
	return out, nil
}

func decodePosPairs(payload []byte, n int) ([]posPair, error) {
	r := &decodeReader{buf: payload}
	cnt, err := r.count()
	if err != nil {
		return nil, fmt.Errorf("warehouse: removed-link column count: %w", err)
	}
	out := make([]posPair, 0, cnt)
	prevA, prevB := int32(0), int32(0)
	for i := uint64(0); i < cnt; i++ {
		dA, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: removed-link entry %d: %w", i, err)
		}
		b, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("warehouse: removed-link entry %d: %w", i, err)
		}
		a, ok := nextPos(prevA, dA, n)
		if !ok || b >= uint64(n) {
			return nil, fmt.Errorf("warehouse: removed-link entry %d: positions (%d+%d,%d) out of range [0,%d)", i, prevA, dA, b, n)
		}
		if !pairAfter(a, int32(b), prevA, prevB, i == 0) {
			return nil, fmt.Errorf("warehouse: removed-link entry %d: (%d,%d) is not an ordered pair sorting after (%d,%d)", i, a, b, prevA, prevB)
		}
		out = append(out, posPair{A: a, B: int32(b)})
		prevA, prevB = a, int32(b)
	}
	return out, nil
}

// paddingBits returns the bits of word i of an n-AS cone slab that lie
// past the row's last member, n-1: none unless i is the last word of a
// row and n is no multiple of 64. No writer sets one, and a member list
// has nowhere to put one.
func paddingBits(i, n int) uint64 {
	if wps := wordsPerRow(n); i%wps != wps-1 || n&63 == 0 {
		return 0
	}
	return ^uint64(0) << (uint(n) & 63)
}

// checkWordsRLE walks a zero-run-length slab column (colConeWords) of
// an n-AS epoch once for every error it can hold — a total other than
// the n·wordsPerRow(n) words the already-decoded AS count implies; an
// unknown run flag; a run that is empty, overruns the total or is cut
// short; a set bit in a row's padding — and returns the runs, which
// decodeWordsRLE may then read without a check, and the number of set
// bits, the length of the member column they decode to.
func checkWordsRLE(payload []byte, n int, id byte) (runs []byte, set int, err error) {
	r := &decodeReader{buf: payload}
	total, err := r.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("warehouse: slab column %d count: %w", id, err)
	}
	if want := n * wordsPerRow(n); total != uint64(want) {
		return nil, 0, fmt.Errorf("warehouse: slab column %d has %d words, want %d", id, total, want)
	}
	runs = r.buf[r.off:]
	for at := uint64(0); at < total; {
		flag, err := r.bytes(1)
		if err != nil {
			return nil, 0, fmt.Errorf("warehouse: slab column %d run flag: %w", id, err)
		}
		run, err := r.uvarint()
		if err != nil {
			return nil, 0, fmt.Errorf("warehouse: slab column %d run length: %w", id, err)
		}
		if run == 0 || run > total-at {
			return nil, 0, fmt.Errorf("warehouse: slab column %d run of %d words overruns total %d at word %d", id, run, total, at)
		}
		switch flag[0] {
		case 0:
		case 1:
			words, err := r.bytes(int(run) * 8)
			if err != nil {
				return nil, 0, fmt.Errorf("warehouse: slab column %d literal run: %w", id, err)
			}
			for k := 0; k < int(run); k++ {
				w, i := binary.LittleEndian.Uint64(words[8*k:]), int(at)+k
				if pad := w & paddingBits(i, n); pad != 0 {
					return nil, 0, fmt.Errorf("warehouse: slab column %d: bit %d is padding past the last of %d ASes", id, i<<6+bits.TrailingZeros64(pad), n)
				}
				set += bits.OnesCount64(w)
			}
		default:
			return nil, 0, fmt.Errorf("warehouse: slab column %d: unknown run flag %d", id, flag[0])
		}
		at += run
	}
	return runs, set, nil
}

// decodeWordsRLE reads the runs checkWordsRLE passed as the member
// lists of an n-AS epoch: start (n+1 entries) receives the offsets and
// members (as many entries as the check counted set bits) each row's
// member positions. The literal words arrive in slab order, so each
// row's members are appended in ascending order after the rows before
// it; zero runs are skipped.
func decodeWordsRLE(runs []byte, n int, start, members []int32) {
	wps := wordsPerRow(n)
	clear(start)
	k := 0
	for at, off := 0, 0; at < n*wps; {
		literal := runs[off] == 1
		run, adv := binary.Uvarint(runs[off+1:])
		off += 1 + adv
		if literal {
			for i := at; i < at+int(run); i++ {
				p, base := i/wps, int32(i%wps)<<6
				for w := binary.LittleEndian.Uint64(runs[off:]); w != 0; w &= w - 1 {
					members[k] = base + int32(bits.TrailingZeros64(w))
					k++
					start[p+1]++
				}
				off += 8
			}
		}
		at += int(run)
	}
	for p := 0; p < n; p++ {
		start[p+1] += start[p]
	}
}

// checkBitGaps walks a flipped-bit gap list (the dcolConeXor encoding)
// of an n-AS epoch once for range, duplicate and padding errors and
// returns the gap bytes, which the replayer may then apply without a
// check, and the number of flipped bits. The stored total must be the
// slab's word count, as in checkWordsRLE.
func checkBitGaps(payload []byte, n int, id byte) (gaps []byte, flips int, err error) {
	r := &decodeReader{buf: payload}
	total, err := r.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("warehouse: bit column %d count: %w", id, err)
	}
	if want := n * wordsPerRow(n); total != uint64(want) {
		return nil, 0, fmt.Errorf("warehouse: bit column %d has %d words, want %d", id, total, want)
	}
	gaps = r.buf[r.off:]
	limit, rowBits := total*64, uint64(wordsPerRow(n))<<6
	prev, first := uint64(0), true
	for r.off < len(r.buf) {
		gap, err := r.uvarint()
		if err != nil {
			return nil, 0, fmt.Errorf("warehouse: bit column %d gap: %w", id, err)
		}
		if !first && gap == 0 {
			return nil, 0, fmt.Errorf("warehouse: bit column %d: duplicate bit %d", id, prev)
		}
		if gap >= limit-prev {
			return nil, 0, fmt.Errorf("warehouse: bit column %d: bit %d+%d out of range [0,%d)", id, prev, gap, limit)
		}
		prev, first = prev+gap, false
		if prev%rowBits >= uint64(n) {
			return nil, 0, fmt.Errorf("warehouse: bit column %d: bit %d is padding past the last of %d ASes", id, prev, n)
		}
		flips++
	}
	return gaps, flips, nil
}

// applySparse adds a sparse column delta to vals, the successor's
// column as carried over from its predecessor, refusing an entry whose
// result would be negative or not fit the column's type. vals is the
// new epoch's own column, so an error leaves nothing the replayer keeps.
func applySparse[T int32 | int64](payload []byte, vals []T, id byte) error {
	r := &decodeReader{buf: payload}
	cnt, err := r.count()
	if err != nil {
		return fmt.Errorf("warehouse: sparse column %d count: %w", id, err)
	}
	prev := int32(0)
	for i := uint64(0); i < cnt; i++ {
		at := r.off
		dPos, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("warehouse: sparse column %d entry %d: %w", id, i, err)
		}
		diff, err := r.varint()
		if err != nil {
			return fmt.Errorf("warehouse: sparse column %d entry %d: %w", id, i, err)
		}
		pos, ok := nextPos(prev, dPos, len(vals))
		if !ok {
			return fmt.Errorf("warehouse: sparse column %d entry %d: position %d+%d out of range [0,%d)", id, i, prev, dPos, len(vals))
		}
		// The carried value is a count, never negative, so the sum can
		// only overflow upward.
		old := int64(vals[pos])
		if diff > math.MaxInt64-old || old+diff < 0 || int64(T(old+diff)) != old+diff {
			return fmt.Errorf("warehouse: sparse column %d entry %d at offset %d: %d%+d out of range", id, i, at, old, diff)
		}
		vals[pos] = T(old + diff)
		prev = pos
	}
	return nil
}

func decodeScalars(payload []byte) (pathCount, links int64, err error) {
	r := &decodeReader{buf: payload}
	var counts [2]int64
	for i, name := range []string{"path count", "link count"} {
		at := r.off
		v, err := r.uvarint()
		if err != nil {
			return 0, 0, fmt.Errorf("warehouse: scalar column %s: %w", name, err)
		}
		if v > math.MaxInt64 {
			return 0, 0, fmt.Errorf("warehouse: scalar column %s at offset %d: %d out of range", name, at, v)
		}
		counts[i] = int64(v)
	}
	return counts[0], counts[1], nil
}

// decodeShared parses the columns full and delta epochs encode
// identically: clique, step names, scalars. It returns the steps the
// link columns index and the link count the epoch records, which
// checkLinkCount holds to the decoded link column.
func decodeShared(cols map[byte][]byte, s *Snapshot) (steps []core.Step, links int64, err error) {
	p, err := col(cols, colClique)
	if err != nil {
		return nil, 0, err
	}
	if s.Clique, err = decodeAscendingU32(p, colClique); err != nil {
		return nil, 0, err
	}
	if p, err = col(cols, colStepNames); err != nil {
		return nil, 0, err
	}
	if steps, err = decodeStepNames(p); err != nil {
		return nil, 0, err
	}
	if p, err = col(cols, colScalars); err != nil {
		return nil, 0, err
	}
	if s.PathCount, links, err = decodeScalars(p); err != nil {
		return nil, 0, err
	}
	return steps, links, nil
}

// checkLinkCount refuses an epoch whose recorded link count is not the
// length of the link column it decodes to.
func checkLinkCount(recorded int64, links []LinkRec) error {
	if recorded != int64(len(links)) {
		return fmt.Errorf("warehouse: scalar column records %d links, the link column holds %d", recorded, len(links))
	}
	return nil
}

// mergeASNs applies a removal and an addition list to a sorted ASN
// column, producing the successor epoch's sorted column. A removal the
// predecessor does not hold, or an addition it already does, is an
// error: the result must stay strictly ascending.
func mergeASNs(old, removed, added []uint32) ([]uint32, error) {
	out := make([]uint32, 0, max(len(old)-len(removed), 0)+len(added))
	ri, j := 0, 0
	for _, a := range old {
		if ri < len(removed) && removed[ri] == a {
			ri++
			continue
		}
		for ; j < len(added) && added[j] < a; j++ {
			out = append(out, added[j])
		}
		if j < len(added) && added[j] == a {
			return nil, fmt.Errorf("warehouse: added AS%d is already in the predecessor epoch", a)
		}
		out = append(out, a)
	}
	if ri != len(removed) {
		return nil, fmt.Errorf("warehouse: removed AS%d is not in the predecessor epoch", removed[ri])
	}
	return append(out, added[j:]...), nil
}

// rebuildLinks reassembles the successor link list in dst's array,
// grown if it has too little room: old links survive unless removed or
// touching a departed AS, translated to new positions and relabeled by
// the change set; added links merge in sorted, and one the predecessor
// still holds is refused. dst must not share old.Links' array. Into a
// dst with room for the successor it allocates nothing, so a replay
// rebuilds every delta's links in one spare array
// (TestRebuildLinksIntoWarmPairAllocatesNothing).
//
//asrank:hotpath
func rebuildLinks(old *Snapshot, m *indexMap, removed []posPair, added, changed []LinkRec, dst []LinkRec) ([]LinkRec, error) {
	// The removed set, the change set and the added list are consulted
	// during a single ordered sweep; all are sorted the same way as the
	// link lists, and old→new translation is monotonic (both indexes are
	// ASN-ordered), so the output stays sorted. The result holds exactly
	// the old links less the removed ones plus the added ones.
	ri, ci, ai := 0, 0, 0
	out := reuse(dst, max(len(old.Links)-len(removed), 0)+len(added))
	for _, l := range old.Links {
		if ri < len(removed) && removed[ri].A == l.A && removed[ri].B == l.B {
			ri++
			continue
		}
		na, nb := m.oldToNew[l.A], m.oldToNew[l.B]
		if na < 0 || nb < 0 {
			return nil, errLinkTouchesRemoved(l.A, l.B)
		}
		nl := LinkRec{A: na, B: nb, Rel: l.Rel, Step: l.Step}
		if ci < len(changed) && changed[ci].A == na && changed[ci].B == nb {
			nl.Rel, nl.Step = changed[ci].Rel, changed[ci].Step // relabeled
			ci++
		}
		for ; ai < len(added) && (added[ai].A < na || (added[ai].A == na && added[ai].B <= nb)); ai++ {
			if added[ai].A == na && added[ai].B == nb {
				return nil, errAddedLinkHeld(na, nb)
			}
			out = append(out, added[ai])
		}
		out = append(out, nl)
	}
	if ri != len(removed) {
		return nil, errLinksNotFound("removed", len(removed)-ri, removed[ri].A, removed[ri].B)
	}
	if ci != len(changed) {
		return nil, errLinksNotFound("changed", len(changed)-ci, changed[ci].A, changed[ci].B)
	}
	return append(out, added[ai:]...), nil
}

// The errors rebuildLinks refuses a delta with, formatted out of its
// loop.

func errLinkTouchesRemoved(a, b int32) error {
	return fmt.Errorf("warehouse: link (%d,%d) touches a removed AS but is not in the removed set", a, b)
}

func errAddedLinkHeld(a, b int32) error {
	return fmt.Errorf("warehouse: added link (%d,%d) is already in predecessor", a, b)
}

func errLinksNotFound(kind string, missed int, a, b int32) error {
	return fmt.Errorf("warehouse: %d %s links not found in predecessor (first miss (%d,%d))", missed, kind, a, b)
}
