package warehouse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/cone"
)

// The passes below are the warehouse's cone-slab passes as they stood
// before rows that are exactly {self} were skipped (DESIGN.md §14): each
// walks every word of the slab. They are the oracles the skipping
// versions are held to — byte-identical XOR columns, word-identical
// slabs, equal sizes.

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

// oracleRemapSlab is remapSlab clearing and re-scanning every row.
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
		if p != dropped && selfOnly(s.ConeWords, sizes, wps, p) {
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
	c.RankPos = cone.RankPositions(c.ConeSizes(), c.TransitDegree)
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

			gotSlab, gotSizes := dirty(n)
			wantSlab, wantSizes := dirty(n)
			clear(gotSlab) // as zeroSpare hands it over; the sizes stay dirty
			remapSlab(gotSlab, gotSizes, old.ConeWords, old.ConeSizes(), m)
			oracleRemapSlab(wantSlab, wantSizes, old.ConeWords, m)
			if !slices.Equal(gotSlab, wantSlab) || !slices.Equal(gotSizes, wantSizes) {
				t.Errorf("epoch %d %s: remapped slab or sizes differ from the row-by-row remap", e, name)
			}

			payload := encodeWordsRLE(nil, cur.ConeWords)
			gotSlab, gotSizes = dirty(n)
			wantSlab, wantSizes = dirty(n)
			clear(gotSlab)
			if err := decodeWordsRLE(payload, gotSlab, gotSizes, colConeWords); err != nil {
				t.Fatal(err)
			}
			if err := oracleWordsRLE(payload, wantSlab, wantSizes); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotSlab, cur.ConeWords) || !slices.Equal(gotSlab, wantSlab) || !slices.Equal(gotSizes, wantSizes) {
				t.Errorf("epoch %d %s: decoded slab or sizes differ from decode-then-count", e, name)
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
			if !slices.Equal(rp.slab, cur.ConeWords) || !slices.Equal(rp.sizes, sized(cur).coneSizes) {
				t.Errorf("epoch %d %s: the replayed delta does not land on the appended slab and sizes", e, name)
			}
		}
	}
}

// TestRefusedEpochLeavesWorkingPair: a full epoch refused after literal
// runs were decoded, and a delta refused at its last check, have written
// only to the spare slab and spare sizes — the working pair is the same
// memory holding the same words.
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
	// One churned delta first, so both halves of both pairs exist.
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
