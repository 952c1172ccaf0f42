package warehouse

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/topology"
)

// The warehouse held its cones as one dense n × n-bit slab before they
// were member lists (DESIGN.md §14). That layout lives on here as the
// oracle of the list passes: denseSlab lays a snapshot's cones out as
// the slab the cone columns describe, and the passes below are the
// encoders and the replayer as they stood over it, each walking every
// word. The list passes are held to them — byte-identical columns, equal
// cones. Beside them, History.Diff's map fold is the oracle of the merge.

// denseSlab returns s's cones as the slab the cone columns are written
// in: row p is words [p·wps, (p+1)·wps) with wps = wordsPerRow(n).
func denseSlab(s *Snapshot) []uint64 {
	n := len(s.ASNs)
	wps := wordsPerRow(n)
	slab := make([]uint64, n*wps)
	for p := 0; p < n; p++ {
		for _, m := range s.coneRow(p) {
			slab[p*wps+int(m)>>6] |= 1 << (uint(m) & 63)
		}
	}
	return slab
}

// denseLists reads an n-AS slab back as member lists, padding bits
// included as members ≥ n — which no list the store accepts holds.
func denseLists(slab []uint64, n int) (start, members []int32) {
	start = []int32{0}
	if n > 0 {
		wps := len(slab) / n
		for p := 0; p < n; p++ {
			for wi, w := range slab[p*wps : (p+1)*wps] {
				for ; w != 0; w &= w - 1 {
					members = append(members, int32(wi<<6+bits.TrailingZeros64(w)))
				}
			}
			start = append(start, int32(len(members)))
		}
	}
	return start, members
}

// oracleWordsRLE is the zero-run-length encoder over a dense slab.
func oracleWordsRLE(out []byte, words []uint64) []byte {
	out = binary.AppendUvarint(out, uint64(len(words)))
	for i := 0; i < len(words); {
		j := i
		if words[i] == 0 {
			for j < len(words) && words[j] == 0 {
				j++
			}
			out = append(out, 0)
			out = binary.AppendUvarint(out, uint64(j-i))
		} else {
			for j < len(words) && words[j] != 0 {
				j++
			}
			out = append(out, 1)
			out = binary.AppendUvarint(out, uint64(j-i))
			for _, w := range words[i:j] {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
		}
		i = j
	}
	return out
}

// remapRow projects one old cone row into the new index: surviving
// members keep their bit at the remapped position, departed members
// vanish. dst must be zero; the number of bits set in it is returned.
// A bit in the row's padding names no AS and vanishes too.
func remapRow(dst, cone []uint64, oldToNew []int32) int {
	set := 0
	for wi, w := range cone {
		for ; w != 0; w &= w - 1 {
			bit := wi<<6 + bits.TrailingZeros64(w)
			if bit < len(oldToNew) && oldToNew[bit] >= 0 {
				nb := uint(oldToNew[bit])
				dst[nb>>6] |= 1 << (nb & 63)
				set++
			}
		}
	}
	return set
}

// oracleRemapSlab projects an old slab into the new index m aligns it
// to, every row of dst cleared and every row of src re-scanned.
func oracleRemapSlab(dst, src []uint64, m *indexMap) {
	n, nOld := len(m.newToOld), len(m.oldToNew)
	wps, wpsOld := wordsPerRow(n), wordsPerRow(nOld)
	for np := 0; np < n; np++ {
		row := dst[np*wps : (np+1)*wps]
		clear(row)
		if op := int(m.newToOld[np]); op >= 0 {
			remapRow(row, src[op*wpsOld:(op+1)*wpsOld], m.oldToNew)
		}
	}
}

// oracleConeXor is the XOR column over dense slabs: every new row
// against its remapped predecessor row, word by word.
func oracleConeXor(out []byte, oldSlab, curSlab []uint64, m *indexMap) []byte {
	n := len(m.newToOld)
	wps := wordsPerRow(n)
	out = binary.AppendUvarint(out, uint64(wps*n))
	remapped := make([]uint64, wps*n)
	oracleRemapSlab(remapped, oldSlab, m)
	prev := uint64(0)
	for wi, w := range curSlab {
		for w ^= remapped[wi]; w != 0; w &= w - 1 {
			idx := uint64(wi)<<6 + uint64(bits.TrailingZeros64(w))
			out = binary.AppendUvarint(out, idx-prev)
			prev = idx
		}
	}
	return out
}

// denseReplayer is the replayer's cone state as one slab: a full
// epoch's column decodes word by word, a delta remaps the slab into a
// second one and flips its bits there. It trusts its input; the list
// replayer's checks have passed it first.
type denseReplayer struct {
	n    int
	slab []uint64
}

func (d *denseReplayer) full(payload []byte, n int) {
	r := &decodeReader{buf: payload}
	total, _ := r.uvarint()
	d.n, d.slab = n, make([]uint64, total)
	for at := uint64(0); at < total; {
		flag, _ := r.bytes(1)
		run, _ := r.uvarint()
		if flag[0] == 1 {
			raw, _ := r.bytes(int(run) * 8)
			for i := uint64(0); i < run; i++ {
				d.slab[at+i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		}
		at += run
	}
}

func (d *denseReplayer) delta(payload []byte, m *indexMap) {
	r := &decodeReader{buf: payload}
	total, _ := r.uvarint()
	next := make([]uint64, total)
	oracleRemapSlab(next, d.slab, m)
	for idx := uint64(0); r.off < len(r.buf); {
		gap, _ := r.uvarint()
		idx += gap
		next[idx>>6] ^= 1 << (idx & 63)
	}
	d.n, d.slab = len(m.newToOld), next
}

// oracleDiff is History.Diff as a fold through a map keyed by link, the
// implementation the merge replaced: the first change of a link gives
// its Old, the last its New and Step, and the result is sorted.
func oracleDiff(h *History, from, to uint32) ([]RelChange, error) {
	if from >= to || int(to) >= len(h.series) {
		return nil, fmt.Errorf("warehouse: diff range [%d,%d] invalid for %d epochs", from, to, len(h.series))
	}
	type linkKey struct{ a, b uint32 }
	type fold struct {
		orig, final topology.Relationship
		step        string
	}
	acc := make(map[linkKey]*fold)
	for e := from + 1; e <= to; e++ {
		for _, c := range h.series[e].changes {
			k := linkKey{c.A, c.B}
			f, ok := acc[k]
			if !ok {
				f = &fold{orig: c.Old}
				acc[k] = f
			}
			f.final = c.New
			f.step = c.Step
		}
	}
	out := make([]RelChange, 0, len(acc))
	for k, f := range acc {
		if f.orig == f.final {
			continue
		}
		out = append(out, RelChange{A: k.a, B: k.b, Old: f.orig, New: f.final, Step: f.step})
	}
	slices.SortFunc(out, byEndpoints)
	return out, nil
}

// flappingHistory returns a History of the given number of epochs whose
// change lists are drawn at random over a small set of links, so a link
// appears, vanishes, is relabelled and comes back across a range — the
// lists are sorted by (A, B) and name a link at most once, as relChanges
// writes them.
func flappingHistory(rng *rand.Rand, epochs, links int) *History {
	steps := []string{"clique", "top-down", "fold"}
	keys := make([][2]uint32, 0, links)
	for len(keys) < links {
		a := uint32(1 + rng.Intn(40))
		k := [2]uint32{a, a + 1 + uint32(rng.Intn(40))}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y [2]uint32) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	state := make([]topology.Relationship, links)
	h := &History{series: make([]epochSeries, epochs)}
	for e := 1; e < epochs; e++ {
		for i, k := range keys {
			if rng.Intn(3) > 0 {
				continue
			}
			c := RelChange{A: k[0], B: k[1], Old: state[i], New: topology.Relationship((int(state[i]) + 1 + rng.Intn(3)) % 4)}
			if c.New != 0 {
				c.Step = steps[rng.Intn(len(steps))]
			}
			state[i] = c.New
			h.series[e].changes = append(h.series[e].changes, c)
		}
	}
	return h
}

// TestDiffMergeEqualsMapFold holds the merging Diff to the map fold over
// every range of random flapping change lists and of synthetic stores,
// appended and reopened, and over ranges with no change at all.
func TestDiffMergeEqualsMapFold(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var histories []*History
	for _, links := range []int{1, 3, 60, 400} {
		histories = append(histories, flappingHistory(rng, 12, links))
	}
	appended, reopened := synthStore(t, synthSeries(300, 9, 7, 3, 4), 4)
	histories = append(histories, appended.History(), reopened.History(), &History{series: make([]epochSeries, 3)})
	for hi, h := range histories {
		for from := 0; from < len(h.series); from++ {
			for to := from; to <= len(h.series); to++ {
				got, err := h.Diff(uint32(from), uint32(to))
				want, wantErr := oracleDiff(h, uint32(from), uint32(to))
				if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("history %d, diff %d..%d: merge gives %v (%v), the map fold %v (%v)", hi, from, to, got, err, want, wantErr)
				}
			}
		}
	}
}

// oracleHistory is History as it stood before it kept only what
// changed: every epoch holds its own AS column and five dense per-AS
// columns — rank, cone size, cone prefixes, degree and transit degree —
// and ASN reads each epoch's entry at the AS's position. It is the
// oracle of the moved lists.
type oracleHistory struct {
	epochs []EpochInfo
	series []oracleSeries
}

type oracleSeries struct {
	asns          []uint32
	rankOf        []int32
	coneASes      []int32
	conePrefixes  []int64
	degree        []int32
	transitDegree []int32
	changes       []RelChange
}

// extend appends snap as the next epoch, copying every column it keeps.
func (h *oracleHistory) extend(info EpochInfo, snap *Snapshot, changes []RelChange) {
	s := oracleSeries{
		asns:          slices.Clone(snap.ASNs),
		rankOf:        make([]int32, len(snap.ASNs)),
		coneASes:      snap.ConeSizes(),
		conePrefixes:  slices.Clone(snap.ConePrefixes),
		degree:        slices.Clone(snap.Degree),
		transitDegree: slices.Clone(snap.TransitDegree),
		changes:       changes,
	}
	for r, p := range cone.RankPositions(s.coneASes, s.transitDegree) {
		s.rankOf[p] = int32(r) + 1
	}
	h.epochs = append(h.epochs, info)
	h.series = append(h.series, s)
}

// ASN is History.ASN over the dense columns.
func (h *oracleHistory) ASN(asn uint32) []ASNEpoch {
	out := make([]ASNEpoch, 0, len(h.series))
	for i := range h.series {
		s := &h.series[i]
		e := ASNEpoch{Epoch: h.epochs[i].ID, Label: h.epochs[i].Label}
		if p, ok := posOf(s.asns, asn); ok {
			e.Present = true
			e.Rank = s.rankOf[p]
			e.ConeASes = s.coneASes[p]
			e.ConePrefixes = s.conePrefixes[p]
			e.Degree = s.degree[p]
			e.TransitDegree = s.transitDegree[p]
		}
		for _, c := range s.changes {
			if c.A == asn || c.B == asn {
				e.Changes = append(e.Changes, c)
			}
		}
		out = append(out, e)
	}
	return out
}

// historyUniverse is the ASNs FuzzHistory's snapshots draw from.
var historyUniverse = []uint32{3, 7, 8, 20, 21, 64, 100, 101, 4000, 65536, 70000, 4200000000}

// historyInput reads a fuzz input as a chain of small snapshots over
// historyUniverse, at most 24 epochs: per epoch, two bytes whose low 12
// bits say which ASes are present, then one byte per present AS holding
// its transit degree, degree and cone prefixes (two bits each, so zero
// is frequent and values repeat) and its cone size (the top two bits,
// capped at the AS count). A short input ends the chain.
func historyInput(data []byte) []*Snapshot {
	var out []*Snapshot
	for len(data) >= 2 && len(out) < 24 {
		mask := uint16(data[0]) | uint16(data[1])<<8
		data = data[2:]
		s := &Snapshot{ConeStart: []int32{0}}
		for i, asn := range historyUniverse {
			if mask&(1<<i) != 0 {
				s.ASNs = append(s.ASNs, asn)
			}
		}
		for range s.ASNs {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			s.TransitDegree = append(s.TransitDegree, int32(b&3))
			s.Degree = append(s.Degree, int32(b>>2&3))
			s.ConePrefixes = append(s.ConePrefixes, int64(b>>4&3))
			for m := range min(int(b>>6), len(s.ASNs)) {
				s.ConeMembers = append(s.ConeMembers, int32(m))
			}
			s.ConeStart = append(s.ConeStart, int32(len(s.ConeMembers)))
		}
		out = append(out, s)
	}
	return out
}

// FuzzHistory holds History.ASN to the dense oracle over any chain of
// small snapshots whose ASes leave and return and whose metrics hit
// zero, stay put or move: after every extend, the trajectory of every
// AS of the universe, and of two never seen, is the oracle's.
func FuzzHistory(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xff, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x05, 0x00, 0xc1, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x05, 0x00, 0xc1, 0x00})
	f.Add([]byte{0x0f, 0x00, 0x55, 0xaa, 0x00, 0xff, 0xf0, 0x00, 0x55, 0xaa, 0x00, 0xff, 0x0f, 0x00, 0x55, 0xaa, 0x00, 0xff})
	f.Add([]byte{0x00, 0x00, 0x01, 0x08, 0x40, 0x00, 0x00, 0x01, 0x08, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, oracle := newHistory(), new(oracleHistory)
		var ranks rankScratch
		var prev *Snapshot
		for e, snap := range historyInput(data) {
			info := EpochInfo{ID: uint32(e), Label: fmt.Sprint("epoch-", e)}
			h = h.extend(info, prev, snap, nil, &ranks)
			oracle.extend(info, snap, nil)
			prev = snap
			for _, asn := range append([]uint32{1, 5000}, historyUniverse...) {
				if got, want := h.ASN(asn), oracle.ASN(asn); !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d, AS%d: History answers %+v, the dense oracle %+v", e, asn, got, want)
				}
			}
		}
	})
}

// rowsOf returns s's cones as one slice per position, copied.
func rowsOf(s *Snapshot) [][]int32 {
	rows := make([][]int32, len(s.ASNs))
	for p := range rows {
		rows[p] = slices.Clone(s.coneRow(p))
	}
	return rows
}

// withRows returns a copy of s holding the given cones.
func withRows(s *Snapshot, rows [][]int32) *Snapshot {
	c := *s
	c.ConeStart, c.ConeMembers = []int32{0}, nil
	for _, row := range rows {
		c.ConeMembers = append(c.ConeMembers, row...)
		c.ConeStart = append(c.ConeStart, int32(len(c.ConeMembers)))
	}
	return &c
}

// craftRows returns a copy of s in which five rows that were {self}
// hold what an inferred product never does: one member that is not the
// AS itself, no member at all, the AS and the last position, the last
// position alone, and — given the position of an AS the next epoch
// drops — that AS as the row's only member. n is held off a multiple of
// 64, so the last position shares its word with padding bits.
func craftRows(t testing.TB, s *Snapshot, dropped int) *Snapshot {
	t.Helper()
	n, rows := len(s.ASNs), rowsOf(s)
	var self []int
	for p := n - 1; p >= 0 && len(self) < 5; p-- {
		if p != dropped && slices.Equal(rows[p], []int32{int32(p)}) {
			self = append(self, p)
		}
	}
	if len(self) < 5 || n%64 == 0 {
		t.Fatalf("snapshot of %d ASes has %d {self} rows to craft and %d padding bits", n, len(self), wordsPerRow(n)*64-n)
	}
	rows[self[0]] = []int32{int32((self[0] + 1) % n)}
	rows[self[1]] = nil
	rows[self[2]] = []int32{int32(self[2]), int32(n - 1)}
	rows[self[3]] = []int32{int32(n - 1)}
	if dropped >= 0 {
		rows[self[4]] = []int32{int32(dropped)}
	}
	return withRows(s, rows)
}

// droppedBy returns the old position of an AS that cur no longer holds,
// or -1.
func droppedBy(old, cur *Snapshot) int {
	return slices.Index(mapIndexes(old.ASNs, cur.ASNs).oldToNew, -1)
}

// padded returns cur's dense slab with one padding bit set: the last
// bit of row 0, which names no AS when n is no multiple of 64.
func padded(cur *Snapshot) []uint64 {
	slab := denseSlab(cur)
	slab[wordsPerRow(len(cur.ASNs))-1] |= 1 << 63
	return slab
}

// TestSkippingPassesEqualFullSweeps holds the list passes to the dense
// sweeps they replaced, over a series whose ASes enter and leave (and
// two epochs that keep their AS set), with crafted rows on either side:
// the full and delta cone columns are byte-identical to the dense
// encoders', the full column decodes over a dirty spare pair to the
// lists the dense decode reads, and the delta, replayed, lands on the
// appended lists. A padding bit, which no member list can hold, is
// refused in either column, and the refused epoch leaves the replayer
// where it was.
func TestSkippingPassesEqualFullSweeps(t *testing.T) {
	series := synthSeries(300, 9, 7, 3, 4)
	for e := 1; e < len(series); e++ {
		gone := droppedBy(series[e-1], series[e])
		pairs := map[string][2]*Snapshot{
			"plain":     {series[e-1], series[e]},
			"crafted":   {craftRows(t, series[e-1], gone), craftRows(t, series[e], -1)},
			"craftedL":  {craftRows(t, series[e-1], gone), series[e]},
			"craftedR":  {series[e-1], craftRows(t, series[e], -1)},
			"unchanged": {series[e], craftRows(t, series[e], -1)},
		}
		for name, pair := range pairs {
			old, cur := pair[0], pair[1]
			m := mapIndexes(old.ASNs, cur.ASNs)
			n := len(cur.ASNs)
			oldSlab, curSlab := denseSlab(old), denseSlab(cur)

			full := encodeWordsRLE(nil, cur)
			if want := oracleWordsRLE(nil, curSlab); !bytes.Equal(full, want) {
				t.Errorf("epoch %d %s: slab column of %d bytes, the dense encoder writes %d", e, name, len(full), len(want))
			}
			if got, want := encodeConeXor(nil, old, cur, m), oracleConeXor(nil, oldSlab, curSlab, m); !bytes.Equal(got, want) {
				t.Errorf("epoch %d %s: XOR column of %d bytes, the dense sweep writes %d", e, name, len(got), len(want))
			}

			runs, set, err := checkWordsRLE(full, n, colConeWords)
			if err != nil {
				t.Fatal(err)
			}
			start, members := make([]int32, n+1), make([]int32, set)
			for i := range members {
				members[i] = -1
			}
			for i := range start {
				start[i] = -1
			}
			decodeWordsRLE(runs, n, start, members)
			var d denseReplayer
			d.full(full, n)
			wantStart, wantMembers := denseLists(d.slab, n)
			if !slices.Equal(start, wantStart) || !slices.Equal(members, wantMembers) ||
				!slices.Equal(start, cur.ConeStart) || !slices.Equal(members, cur.ConeMembers) {
				t.Errorf("epoch %d %s: decoded lists differ from the dense decode or the encoded lists", e, name)
			}

			// End to end: the delta the encoder writes, replayed on the old
			// epoch, is the new epoch, crafted rows and all.
			rp := replayerAt(t, old)
			img, _ := encodeSegment(kindDelta, 1, 0, deltaCols(old, cur))
			_, cols, _, err := parseSegment(img)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.delta(cols); err != nil {
				t.Fatalf("epoch %d %s: %v", e, name, err)
			}
			if got := rp.snapshot(); !slices.Equal(got.ConeStart, cur.ConeStart) || !slices.Equal(got.ConeMembers, cur.ConeMembers) {
				t.Errorf("epoch %d %s: the replayed delta does not land on the appended lists", e, name)
			}
		}

		old, cur := series[e-1], craftRows(t, series[e], -1)
		slab := padded(cur)
		for kind, cols := range map[byte][]segColumn{
			kindFull:  withColumn(encodeFull(cur), colConeWords, oracleWordsRLE(nil, slab)),
			kindDelta: withColumn(deltaCols(old, cur), dcolConeXor, oracleConeXor(nil, denseSlab(old), slab, mapIndexes(old.ASNs, cur.ASNs))),
		} {
			err := refusal(t, old, kind, cols)
			want := fmt.Sprintf("bit %d is padding", wordsPerRow(len(cur.ASNs))*64-1)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("epoch %d, kind %d: padding bit refused with %q, want it named (%q)", e, kind, err, want)
			}
		}
	}
}

// randomFlips returns a dcolConeXor payload for an n-AS epoch flipping
// a random sixth of the rows' positions around each flipped row's own,
// and the flipped bits as one ascending list of bit indexes.
func randomFlips(rng *rand.Rand, n int) (payload []byte, flipped []uint64) {
	rowBits := uint64(wordsPerRow(n)) << 6
	payload = binary.AppendUvarint(nil, uint64(wordsPerRow(n)*n))
	prev := uint64(0)
	for p := 0; p < n; p++ {
		if rng.Intn(6) > 0 {
			continue
		}
		var ms []int
		for k := rng.Intn(4); k >= 0; k-- {
			ms = append(ms, rng.Intn(n))
		}
		slices.Sort(ms)
		for _, m := range slices.Compact(ms) {
			idx := uint64(p)*rowBits + uint64(m)
			payload = binary.AppendUvarint(payload, idx-prev)
			prev = idx
			flipped = append(flipped, idx)
		}
	}
	return payload, flipped
}

// TestRemapInPlaceEqualsOracle holds the merge that carries a
// predecessor's cones into a delta's index to the dense remap that
// rebuilds every row in a second slab, with and without flipped bits on
// top. The predecessor has ASN 100(i+1) at position i; each case names
// the positions that leave and, per old position, how many ASes enter
// just before it (nOld: at the tail). The cases put the first moved
// position at 0, mid-index and the tail, on and off a word boundary,
// with rows that widen, narrow or keep their width; each runs with no
// spare pair and with a spare pair too long and full of stale entries.
// Every predecessor holds {self} rows, empty rows, random cones and, on
// both sides of the first moved position, crafted rows: one whose only
// member leaves, one holding its last position, and one whose one
// member is not its own.
func TestRemapInPlaceEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, tc := range []struct {
		name        string
		nOld        int
		removed     []int
		added       map[int]int
		first, nNew int
	}{
		{"first moved 0, same width", 300, []int{0}, map[int]int{300: 1}, 0, 300},
		{"first moved 0, widen", 320, nil, map[int]int{0: 3}, 0, 323},
		{"mid, widen", 318, nil, map[int]int{150: 5}, 150, 323},
		{"mid, narrow", 322, []int{100, 101, 200}, nil, 100, 319},
		{"mid, same width", 300, []int{140}, map[int]int{200: 2}, 140, 301},
		{"both ends", 300, []int{3}, map[int]int{300: 4}, 3, 303},
		{"tail, widen", 310, nil, map[int]int{310: 20}, 310, 330},
		{"tail, narrow", 330, []int{318, 319, 320, 321, 322, 323, 324, 325, 326, 327, 328, 329}, nil, 318, 318},
		{"tail, same width", 300, []int{297}, map[int]int{300: 6}, 297, 305},
		{"tail at a word boundary, widen", 256, nil, map[int]int{256: 10}, 256, 266},
		{"tail removed down to a word boundary", 330, []int{320, 321, 322, 323, 324, 325, 326, 327, 328, 329}, nil, 320, 320},
	} {
		oldASNs := make([]uint32, tc.nOld)
		for i := range oldASNs {
			oldASNs[i] = uint32(100 * (i + 1))
		}
		var newASNs []uint32
		for p := 0; p <= tc.nOld; p++ {
			for k := 1; k <= tc.added[p]; k++ {
				newASNs = append(newASNs, uint32(100*p+k))
			}
			if p < tc.nOld && !slices.Contains(tc.removed, p) {
				newASNs = append(newASNs, oldASNs[p])
			}
		}
		m := mapIndexes(oldASNs, newASNs)
		f := 0
		for f < len(m.newToOld) && m.newToOld[f] == int32(f) {
			f++
		}
		if f != tc.first || len(newASNs) != tc.nNew {
			t.Fatalf("%s: first moved position %d of %d ASes, want %d of %d", tc.name, f, len(newASNs), tc.first, tc.nNew)
		}

		rows := make([][]int32, tc.nOld)
		for p := range rows {
			switch r := rng.Intn(10); {
			case r < 6:
				rows[p] = []int32{int32(p)}
			case r < 7:
			default:
				for k := rng.Intn(12); k >= 0; k-- {
					rows[p] = append(rows[p], int32(rng.Intn(tc.nOld)))
				}
			}
		}
		leaving := tc.nOld - 1 // an AS the delta removes, or the last
		if len(tc.removed) > 0 {
			leaving = tc.removed[len(tc.removed)-1]
		}
		for i, p := range []int{f - 1, (f - 1) / 2, 0, f, (f + tc.nOld - 1) / 2, tc.nOld - 1} {
			if p < 0 || p >= tc.nOld {
				continue
			}
			switch i % 3 {
			case 0:
				rows[p] = []int32{int32(leaving)}
			case 1:
				rows[p] = []int32{int32(p), int32(tc.nOld - 1)}
			case 2:
				rows[p] = []int32{int32((p + 1) % tc.nOld)}
			}
		}
		for p := range rows {
			slices.Sort(rows[p])
			rows[p] = slices.Compact(rows[p])
		}
		old := withRows(&Snapshot{ASNs: oldASNs}, rows)
		oldSlab := denseSlab(old)

		n := len(newASNs)
		for _, flipping := range []bool{false, true} {
			gaps, flipped := binary.AppendUvarint(nil, uint64(wordsPerRow(n)*n)), []uint64(nil)
			if flipping {
				gaps, flipped = randomFlips(rng, n)
			}
			want := make([]uint64, wordsPerRow(n)*n)
			oracleRemapSlab(want, oldSlab, m)
			for _, idx := range flipped {
				want[idx>>6] ^= 1 << (idx & 63)
			}
			wantStart, wantMembers := denseLists(want, n)
			for _, spare := range []bool{false, true} {
				rp := &replayer{cur: old, start: old.ConeStart, members: old.ConeMembers}
				if spare {
					rp.spareStart, rp.spareMembers = make([]int32, 3*n), make([]int32, 4*len(old.ConeMembers))
					for i := range rp.spareMembers {
						rp.spareMembers[i] = -7
					}
				}
				payload, count, err := checkBitGaps(gaps, n, dcolConeXor)
				if err != nil {
					t.Fatal(err)
				}
				rp.mergeCones(payload, count, m)
				if !slices.Equal(rp.start, wantStart) || !slices.Equal(rp.members, wantMembers) {
					t.Errorf("%s, flipped %v, spare pair %v: the merge differs from the dense remap", tc.name, flipping, spare)
				}
			}
		}
	}
}

// edgeSeries returns a chain of snapshots of 62, 65, 67, 63, 63, 133,
// 128, 128, 64, 1 and 71 ASes with random cones, whose AS set moves at the front, the middle
// and the tail of the index and whose size crosses word boundaries both
// ways — down to one AS and back — with one step that keeps it.
func edgeSeries(rng *rand.Rand) []*Snapshot {
	asns := make([]uint32, 62)
	for i := range asns {
		asns[i] = uint32(100000 + 1000*i)
	}
	steps := []func([]uint32) []uint32{
		func(a []uint32) []uint32 { return append(a, a[len(a)-1]+10, a[len(a)-1]+20, a[len(a)-1]+30) }, // tail: 62 → 65
		func(a []uint32) []uint32 { return append([]uint32{a[0] - 20, a[0] - 10}, a...) },              // front: 67
		func(a []uint32) []uint32 { return slices.Delete(slices.Clone(a), 30, 34) },                    // middle: 63
		func(a []uint32) []uint32 { return append(slices.Clone(a[1:]), a[len(a)-1]+10) },               // both ends: 63
		func(a []uint32) []uint32 { // 70 into the middle: 133
			out := slices.Clone(a[:40])
			for k := 1; k <= 70; k++ {
				out = append(out, a[39]+uint32(10*k))
			}
			return append(out, a[40:]...)
		},
		func(a []uint32) []uint32 { return a[:len(a)-5] }, // tail, down to 128
		func(a []uint32) []uint32 { return a },            // AS set kept
		func(a []uint32) []uint32 { // every other one: 64
			var out []uint32
			for i := 0; i < len(a); i += 2 {
				out = append(out, a[i])
			}
			return out
		},
		func(a []uint32) []uint32 { return a[20:21] }, // one AS
		func(a []uint32) []uint32 { // and 70 again, around it
			out := []uint32{}
			for k := 0; k < 70; k++ {
				out = append(out, uint32(5+7*k))
			}
			return append(out, a[0])
		},
	}
	var out []*Snapshot
	for e := 0; e <= len(steps); e++ {
		if e > 0 {
			asns = steps[e-1](asns)
			slices.Sort(asns)
			asns = slices.Compact(asns)
		}
		n := len(asns)
		rows := make([][]int32, n)
		for p := range rows {
			switch r := rng.Intn(20); {
			case r < 12:
				rows[p] = []int32{int32(p)}
			case r < 14:
			case r < 15:
				for m := range n {
					rows[p] = append(rows[p], int32(m))
				}
			default:
				for k := rng.Intn(10); k >= 0; k-- {
					rows[p] = append(rows[p], int32(rng.Intn(n)))
				}
				slices.Sort(rows[p])
				rows[p] = slices.Compact(rows[p])
			}
		}
		out = append(out, withRows(&Snapshot{
			ASNs:          slices.Clone(asns),
			TransitDegree: make([]int32, n),
			Degree:        make([]int32, n),
			ConePrefixes:  make([]int64, n),
		}, rows))
	}
	return out
}

// TestMergeReplayEqualsDenseReplayer replays a chain whose AS set moves
// at the front, the middle and the tail and whose row width changes,
// stored as one full epoch and deltas, through the replayer and through
// the dense one: every delta column is byte-identical to the dense
// sweep's, and after every epoch the replayer's lists are the appended
// ones and what the dense replayer's slab holds.
func TestMergeReplayEqualsDenseReplayer(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for round := 0; round < 4; round++ {
		series := edgeSeries(rng)
		var sizes []int
		for _, s := range series {
			sizes = append(sizes, len(s.ASNs))
		}
		if want := []int{62, 65, 67, 63, 63, 133, 128, 128, 64, 1, 71}; !slices.Equal(sizes, want) {
			t.Fatalf("series of %v ASes, want %v", sizes, want)
		}
		rp, d := new(replayer), new(denseReplayer)
		for e, cur := range series {
			kind, cols := byte(kindFull), encodeFull(cur)
			if e > 0 {
				old := series[e-1]
				m := mapIndexes(old.ASNs, cur.ASNs)
				kind, cols = kindDelta, deltaCols(old, cur)
				xor := cols[slices.IndexFunc(cols, func(c segColumn) bool { return c.id == dcolConeXor })].payload
				if want := oracleConeXor(nil, denseSlab(old), denseSlab(cur), m); !bytes.Equal(xor, want) {
					t.Fatalf("round %d epoch %d: XOR column differs from the dense sweep's", round, e)
				}
				d.delta(xor, m)
			}
			img, _ := encodeSegment(kind, uint32(e), uint32(max(e-1, 0)), cols)
			_, parsed, _, err := parseSegment(img)
			if err != nil {
				t.Fatal(err)
			}
			if kind == kindFull {
				err = rp.full(parsed)
				d.full(parsed[colConeWords], len(cur.ASNs))
			} else {
				err = rp.delta(parsed)
			}
			if err != nil {
				t.Fatalf("round %d epoch %d (%d ASes): %v", round, e, len(cur.ASNs), err)
			}
			wantStart, wantMembers := denseLists(d.slab, d.n)
			if !slices.Equal(rp.start, cur.ConeStart) || !slices.Equal(rp.members, cur.ConeMembers) ||
				!slices.Equal(rp.start, wantStart) || !slices.Equal(rp.members, wantMembers) {
				t.Fatalf("round %d epoch %d (%d ASes): replayed lists differ from the appended ones or the dense replayer's", round, e, len(cur.ASNs))
			}
		}
	}
}

// TestRefusedEpochLeavesWorkingPair: a full epoch refused in its slab
// column after literal runs (its metrics and links already decoded into
// the spare arrays), a delta refused midway through rebuilding its links
// into the spare array (its metrics already carried into theirs), or
// one refused at its last check, writes nothing to the replayer's
// working metric and link columns or its working pair of cone arrays and
// swaps nothing in: they are the same memory holding the same entries.
func TestRefusedEpochLeavesWorkingPair(t *testing.T) {
	series := synthSeries(300, 3, 7)
	s0, s1, s2 := series[0], series[1], craftRows(t, series[2], -1)
	rp := replayerAt(t, s0)
	load := func(kind byte, cols []segColumn) error {
		img, _ := encodeSegment(kind, 1, 0, cols)
		_, parsed, _, err := parseSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		if kind == kindFull {
			return rp.full(parsed)
		}
		return rp.delta(parsed)
	}
	// One churned delta first, so the working pair has been merged into.
	if err := load(kindDelta, deltaCols(s0, s1)); err != nil {
		t.Fatal(err)
	}
	start, members, links := slices.Clone(rp.start), slices.Clone(rp.members), slices.Clone(rp.cur.Links)
	start0, members0, links0, cur := &rp.start[0], &rp.members[0], &rp.cur.Links[0], rp.cur
	working := *rp.cur // the column headers: which arrays the working epoch reads
	transit, degree, prefixes := slices.Clone(rp.cur.TransitDegree), slices.Clone(rp.cur.Degree), slices.Clone(rp.cur.ConePrefixes)

	rle := encodeWordsRLE(nil, s2)
	m := mapIndexes(s1.ASNs, s2.ASNs)
	// A link from the second half of s2 that s1 holds too, listed as
	// added: the rebuild has written the links before it to the spare
	// array when it meets it.
	added := diffLinks(s1, s2).added
	held := s2.Links[len(s2.Links)/2:]
	held = held[slices.IndexFunc(held, func(l LinkRec) bool { return !slices.Contains(added, l) }):]
	refused := map[string]func() error{
		"full, slab cut short": func() error { return load(kindFull, withColumn(encodeFull(s2), colConeWords, rle[:len(rle)-3])) },
		"full, bad run flag": func() error {
			return load(kindFull, withColumn(encodeFull(s2), colConeWords, append(rle[:len(rle)-10:len(rle)-10], 7, 1)))
		},
		"full, padding bit": func() error {
			return load(kindFull, withColumn(encodeFull(s2), colConeWords, oracleWordsRLE(nil, padded(s2))))
		},
		"delta, duplicate bit": func() error { return load(kindDelta, faultyCols(s1, s2, "duplicate xor bit")) },
		"delta, bit past slab": func() error { return load(kindDelta, faultyCols(s1, s2, "xor bit out of range")) },
		"delta, padding bit": func() error {
			return load(kindDelta, withColumn(deltaCols(s1, s2), dcolConeXor, oracleConeXor(nil, denseSlab(s1), padded(s2), m)))
		},
		"delta, link not in old": func() error { return load(kindDelta, faultyCols(s1, s2, "changed link absent")) },
		"delta, added link held": func() error {
			return load(kindDelta, withColumn(deltaCols(s1, s2), dcolLinksAdd, encodeLinks(nil, held[:1], newStepTable(s2.Links))))
		},
	}
	for name, run := range refused {
		if err := run(); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if rp.cur != cur || &rp.cur.Links[0] != links0 || &rp.start[0] != start0 || &rp.members[0] != members0 {
			t.Errorf("%s: the working epoch or a working array was swapped", name)
		}
		if !slices.Equal(rp.start, start) || !slices.Equal(rp.members, members) {
			t.Errorf("%s: the working pair was written", name)
		}
		if !slices.Equal(rp.cur.Links, links) {
			t.Errorf("%s: the working links were written", name)
		}
		if &rp.cur.TransitDegree[0] != &working.TransitDegree[0] || &rp.cur.Degree[0] != &working.Degree[0] || &rp.cur.ConePrefixes[0] != &working.ConePrefixes[0] {
			t.Errorf("%s: a working metric column was swapped", name)
		}
		if !slices.Equal(rp.cur.TransitDegree, transit) || !slices.Equal(rp.cur.Degree, degree) || !slices.Equal(rp.cur.ConePrefixes, prefixes) {
			t.Errorf("%s: the working metrics were written", name)
		}
		for _, spare := range [][]int32{rp.spareTransit, rp.spareDegree} {
			if len(spare) > 0 && (&spare[0] == &working.TransitDegree[0] || &spare[0] == &working.Degree[0]) {
				t.Errorf("%s: a working metric column is a spare one", name)
			}
		}
		if len(rp.sparePrefixes) > 0 && &rp.sparePrefixes[0] == &working.ConePrefixes[0] {
			t.Errorf("%s: the working prefix column is the spare one", name)
		}
	}
	// And the replayer goes on from where it stood.
	if err := load(kindDelta, deltaCols(s1, s2)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rp.start, s2.ConeStart) || !slices.Equal(rp.members, s2.ConeMembers) || !slices.Equal(rp.cur.Links, s2.Links) ||
		!slices.Equal(rp.cur.TransitDegree, s2.TransitDegree) || !slices.Equal(rp.cur.Degree, s2.Degree) || !slices.Equal(rp.cur.ConePrefixes, s2.ConePrefixes) {
		t.Error("the epoch after the refused ones decodes differently")
	}
}
