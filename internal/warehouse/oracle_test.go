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
	"testing"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/topology"
)

// The passes below are the warehouse's cone-slab passes as they stood
// before rows that are exactly {self} were skipped and before the remap
// worked in place (DESIGN.md §14): each walks every word of the slab.
// They are the oracles the skipping, in-place versions are held to —
// byte-identical XOR columns, word-identical slabs, equal sizes. Beside
// them, History.Diff's map fold is the oracle of the merge.

// oracleConeXor is encodeConeXor reading every row.
func oracleConeXor(out []byte, old, cur *Snapshot, m *indexMap) []byte {
	n, wps, wpsOld := len(cur.ASNs), cur.WordsPerCone(), old.WordsPerCone()
	out = binary.AppendUvarint(out, uint64(wps*n))
	scratch, identity := make([]uint64, wps), m.identity()
	prev := uint64(0)
	for np := 0; np < n; np++ {
		row := scratch
		if op := int(m.newToOld[np]); identity {
			row = old.ConeWords[op*wpsOld : (op+1)*wpsOld]
		} else {
			clear(scratch)
			if op >= 0 {
				remapRow(scratch, old.ConeWords[op*wpsOld:(op+1)*wpsOld], m.oldToNew)
			}
		}
		for wi, w := range cur.ConeWords[np*wps : (np+1)*wps] {
			for w ^= row[wi]; w != 0; w &= w - 1 {
				idx := uint64(np*wps+wi)<<6 + uint64(bits.TrailingZeros64(w))
				out = binary.AppendUvarint(out, idx-prev)
				prev = idx
			}
		}
	}
	return out
}

// oracleRemapSlab is replayer.remap as a second slab: every row of it
// cleared and every row of src re-scanned, none left in place.
func oracleRemapSlab(dst []uint64, dstSizes []int32, src []uint64, m *indexMap) {
	n, nOld := len(m.newToOld), len(m.oldToNew)
	wps, wpsOld := (n+63)/64, (nOld+63)/64
	for np := 0; np < n; np++ {
		row := dst[np*wps : (np+1)*wps]
		clear(row)
		dstSizes[np] = 0
		if op := int(m.newToOld[np]); op >= 0 {
			dstSizes[np] = int32(remapRow(row, src[op*wpsOld:(op+1)*wpsOld], m.oldToNew))
		}
	}
}

// oracleWordsRLE is decodeWordsRLE without the size count: the slab is
// decoded, then popcounted by cone.RowSizes.
func oracleWordsRLE(payload []byte, dst []uint64, sizes []int32) error {
	r := &decodeReader{buf: payload}
	total, err := r.uvarint()
	if err != nil {
		return err
	}
	if total != uint64(len(dst)) {
		return fmt.Errorf("slab total %d, want %d", total, len(dst))
	}
	for at := uint64(0); at < total; {
		flag, err := r.bytes(1)
		if err != nil {
			return err
		}
		run, err := r.uvarint()
		if err != nil {
			return err
		}
		if run == 0 || run > total-at {
			return fmt.Errorf("run of %d words at word %d of %d", run, at, total)
		}
		switch flag[0] {
		case 0:
			clear(dst[at : at+run])
		case 1:
			raw, err := r.bytes(int(run) * 8)
			if err != nil {
				return err
			}
			for i := uint64(0); i < run; i++ {
				dst[at+i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		default:
			return fmt.Errorf("unknown run flag %d", flag[0])
		}
		at += run
	}
	cone.RowSizes(sizes, dst)
	return nil
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

// craftRows returns a hand-built copy of s (no size column) in which
// five rows that were {self} hold what a real slab never does, so the
// {self} predicate is probed where a popcount alone would be fooled:
// one bit that is not the self bit, no bit at all, the self bit plus a
// padding bit, a padding bit alone, and — given the position of an AS
// the next epoch drops — that AS as the row's only member.
func craftRows(t testing.TB, s *Snapshot, dropped int) *Snapshot {
	t.Helper()
	c := *s
	c.ConeWords = slices.Clone(s.ConeWords) // and with the slab goes the size column
	n, wps, sizes := len(s.ASNs), s.WordsPerCone(), s.ConeSizes()
	var rows []int
	for p := n - 1; p >= 0 && len(rows) < 5; p-- {
		if p != dropped && selfOnly(s.ConeWords[p*wps:], sizes[p], p) {
			rows = append(rows, p)
		}
	}
	if len(rows) < 5 || n%64 == 0 {
		t.Fatalf("snapshot of %d ASes has %d {self} rows to craft and %d padding bits", n, len(rows), wps*64-n)
	}
	row := func(i int, members ...int) {
		r := c.ConeWords[rows[i]*wps : (rows[i]+1)*wps]
		clear(r)
		for _, b := range members {
			r[b>>6] |= 1 << (uint(b) & 63)
		}
	}
	row(0, (rows[0]+1)%n)
	row(1)
	row(2, rows[2], n)
	row(3, wps*64-1)
	if dropped >= 0 {
		row(4, dropped)
	}
	return &c
}

// sized returns a copy of s carrying the size column an independent
// count gives it — what a snapshot out of Compose or the replayer holds.
func sized(s *Snapshot) *Snapshot {
	c := *s
	c.setConeSizes(cone.RowSizes(make([]int32, len(s.ASNs)), s.ConeWords))
	return &c
}

// droppedBy returns the old position of an AS that cur no longer holds,
// or -1.
func droppedBy(old, cur *Snapshot) int {
	return slices.Index(mapIndexes(old.ASNs, cur.ASNs).oldToNew, -1)
}

// TestSkippingPassesEqualFullSweeps holds the three passes that skip
// {self} rows to the full sweeps they replaced, over a series whose ASes
// enter and leave (and two epochs that keep their AS set), with crafted
// rows on either side, the size column both present and absent, and
// every destination buffer as dirty as its pass allows.
func TestSkippingPassesEqualFullSweeps(t *testing.T) {
	series := synthSeries(300, 9, 7, 3, 4)
	dirty := func(n int) ([]uint64, []int32) {
		words, sizes := make([]uint64, (n+63)/64*n), make([]int32, n)
		for i := range words {
			words[i] = 0xDEADBEEFDEADBEEF
		}
		for i := range sizes {
			sizes[i] = -1
		}
		return words, sizes
	}
	for e := 1; e < len(series); e++ {
		gone := droppedBy(series[e-1], series[e])
		pairs := map[string][2]*Snapshot{
			"plain":     {series[e-1], series[e]},
			"sized":     {sized(series[e-1]), sized(series[e])},
			"crafted":   {craftRows(t, series[e-1], gone), craftRows(t, series[e], -1)},
			"craftedL":  {craftRows(t, series[e-1], gone), sized(series[e])},
			"craftedR":  {sized(series[e-1]), sized(craftRows(t, series[e], -1))},
			"unchanged": {sized(craftRows(t, series[e], -1)), craftRows(t, series[e], -1)},
		}
		for name, pair := range pairs {
			old, cur := pair[0], pair[1]
			m := mapIndexes(old.ASNs, cur.ASNs)
			n := len(cur.ASNs)

			if got, want := encodeConeXor(nil, old, cur, m), oracleConeXor(nil, old, cur, m); !bytes.Equal(got, want) {
				t.Errorf("epoch %d %s: XOR column of %d bytes, the full sweep writes %d", e, name, len(got), len(want))
			}

			rp := &replayer{slab: slices.Clone(old.ConeWords), sizes: slices.Clone(old.ConeSizes()), capacity: len(old.ASNs)}
			rp.remap(m)
			wantSlab, wantSizes := dirty(n)
			oracleRemapSlab(wantSlab, wantSizes, old.ConeWords, m)
			if !slices.Equal(rp.slab, wantSlab) || !slices.Equal(rp.sizes, wantSizes) {
				t.Errorf("epoch %d %s: remapped slab or sizes differ from the row-by-row remap", e, name)
			}

			// The slab column decodes over a reused slab, stale words and
			// all, and over one just made, which it only writes literals to.
			payload := encodeWordsRLE(nil, cur.ConeWords)
			runs, err := checkWordsRLE(payload, len(cur.ConeWords), colConeWords)
			if err != nil {
				t.Fatal(err)
			}
			wantSlab, wantSizes = dirty(n)
			if err := oracleWordsRLE(payload, wantSlab, wantSizes); err != nil {
				t.Fatal(err)
			}
			for _, zeroed := range []bool{false, true} {
				gotSlab, gotSizes := dirty(n)
				if zeroed {
					clear(gotSlab)
				}
				decodeWordsRLE(runs, gotSlab, gotSizes, zeroed)
				if !slices.Equal(gotSlab, cur.ConeWords) || !slices.Equal(gotSlab, wantSlab) || !slices.Equal(gotSizes, wantSizes) {
					t.Errorf("epoch %d %s, zeroed %v: decoded slab or sizes differ from decode-then-count", e, name, zeroed)
				}
			}

			// End to end: the delta the encoder writes, replayed on the old
			// epoch, is the new epoch, crafted rows and all.
			rp = replayerAt(t, old)
			img, _ := encodeSegment(kindDelta, 1, 0, deltaCols(old, cur))
			_, cols, _, err := parseSegment(img)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.delta(cols); err != nil {
				t.Fatalf("epoch %d %s: %v", e, name, err)
			}
			if !slices.Equal(rp.slab, cur.ConeWords) || !slices.Equal(rp.sizes, sized(cur).coneSizes) {
				t.Errorf("epoch %d %s: the replayed delta does not land on the appended slab and sizes", e, name)
			}
		}
	}
}

// TestRemapInPlaceEqualsOracle holds the in-place remap to the one that
// rebuilds every row in a second slab: word-identical slabs, equal
// sizes. The predecessor has ASN 100(i+1) at position i; each case names
// the positions that leave and, per old position, how many ASes enter
// just before it (nOld: at the tail). The cases put the first moved
// position at 0, mid-index and the tail, on and off a word boundary,
// with rows that widen, narrow or keep their width; each runs with
// buffers to spare and with buffers exactly as long as the predecessor,
// as a manifest whose "ases" is too small leaves them. Every slab holds
// {self} rows, empty rows, random cones and, on both sides of the first
// moved position, crafted rows: one whose only member leaves, one with a
// padding bit, and one whose one bit is not its own.
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
		f := m.firstMoved()
		if f != tc.first || len(newASNs) != tc.nNew {
			t.Fatalf("%s: first moved position %d of %d ASes, want %d of %d", tc.name, f, len(newASNs), tc.first, tc.nNew)
		}

		wpsOld := (tc.nOld + 63) / 64
		slab := make([]uint64, wpsOld*tc.nOld)
		set := func(p, member int) { slab[p*wpsOld+member>>6] |= 1 << (uint(member) & 63) }
		for p := 0; p < tc.nOld; p++ {
			switch r := rng.Intn(10); {
			case r < 6:
				set(p, p)
			case r < 7:
			default:
				for k := rng.Intn(12); k >= 0; k-- {
					set(p, rng.Intn(tc.nOld))
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
			clear(slab[p*wpsOld : (p+1)*wpsOld])
			switch i % 3 {
			case 0:
				set(p, leaving)
			case 1:
				set(p, p)
				set(p, wpsOld*64-1) // a padding bit where nOld is no multiple of 64
			case 2:
				set(p, (p+1)%tc.nOld)
			}
		}
		sizes := cone.RowSizes(make([]int32, tc.nOld), slab)

		n := len(newASNs)
		wantSlab, wantSizes := make([]uint64, (n+63)/64*n), make([]int32, n)
		oracleRemapSlab(wantSlab, wantSizes, slab, m)
		for _, spare := range []bool{true, false} {
			rp := &replayer{slab: slices.Clip(slices.Clone(slab)), sizes: slices.Clip(slices.Clone(sizes)), capacity: tc.nOld}
			if spare {
				rp.capacity = max(tc.nOld, n) + 64
				rp.slab = append(make([]uint64, 0, slabWords(rp.capacity)), slab...)
				rp.sizes = append(make([]int32, 0, rp.capacity), sizes...)
			}
			rp.remap(m)
			if !slices.Equal(rp.slab, wantSlab) || !slices.Equal(rp.sizes, wantSizes) {
				t.Errorf("%s, buffers to spare %v: the in-place remap differs from the row-by-row one", tc.name, spare)
			}
		}
	}
}

// TestRefusedEpochLeavesWorkingPair: the replayer has one slab and one
// sizes column, and a full epoch refused in its slab column after
// literal runs, or a delta refused at its last check, writes nothing to
// either — they are the same memory holding the same words.
func TestRefusedEpochLeavesWorkingPair(t *testing.T) {
	series := synthSeries(300, 3, 7)
	s0, s1, s2 := series[0], series[1], series[2]
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
	// One churned delta first, so the working buffers have been remapped.
	if err := load(kindDelta, deltaCols(s0, s1)); err != nil {
		t.Fatal(err)
	}
	slab, sizes := slices.Clone(rp.slab), slices.Clone(rp.sizes)
	slab0, sizes0, cur := &rp.slab[0], &rp.sizes[0], rp.cur

	rle := encodeWordsRLE(nil, s2.ConeWords)
	refused := map[string]func() error{
		"full, slab cut short": func() error { return load(kindFull, withColumn(encodeFull(s2), colConeWords, rle[:len(rle)-3])) },
		"full, bad run flag": func() error {
			return load(kindFull, withColumn(encodeFull(s2), colConeWords, append(rle[:len(rle)-10:len(rle)-10], 7, 1)))
		},
		"delta, duplicate bit":   func() error { return load(kindDelta, faultyCols(s1, s2, "duplicate xor bit")) },
		"delta, bit past slab":   func() error { return load(kindDelta, faultyCols(s1, s2, "xor bit out of range")) },
		"delta, link not in old": func() error { return load(kindDelta, faultyCols(s1, s2, "changed link absent")) },
	}
	for name, run := range refused {
		if err := run(); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if rp.cur != cur || &rp.slab[0] != slab0 || &rp.sizes[0] != sizes0 {
			t.Errorf("%s: the working epoch, slab or sizes were swapped", name)
		}
		if !slices.Equal(rp.slab, slab) || !slices.Equal(rp.sizes, sizes) {
			t.Errorf("%s: the working slab or sizes were written", name)
		}
	}
	// And the replayer goes on from where it stood.
	if err := load(kindDelta, deltaCols(s1, s2)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rp.slab, s2.ConeWords) || !slices.Equal(rp.sizes, sized(s2).coneSizes) {
		t.Error("the epoch after the refused ones decodes differently")
	}
}
