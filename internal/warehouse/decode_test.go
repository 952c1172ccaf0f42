package warehouse

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// inferEpochs infers n consecutive snapshots of a small evolving
// topology.
func inferEpochs(t testing.TB, n int) []*Snapshot {
	t.Helper()
	p := topology.DefaultParams(42)
	p.ASes = 120
	e := topology.DefaultEvolveParams()
	e.Snapshots = n
	var snaps []*Snapshot
	for i, topo := range topology.GenerateSeries(p, e) {
		opts := bgpsim.DefaultOptions(42 + 1000*int64(i))
		opts.NumVPs = 6
		sim, err := bgpsim.Run(topo, opts)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		snaps = append(snaps, FromResult(core.Infer(clean, core.Options{})))
	}
	return snaps
}

// twoEpochs infers a full epoch and the base its delta successor
// replays on.
func twoEpochs(t testing.TB) (s0, s1 *Snapshot) {
	snaps := inferEpochs(t, 2)
	return snaps[0], snaps[1]
}

// mapIndexes aligns two indexes in a map of their own.
func mapIndexes(oldASNs, newASNs []uint32) *indexMap {
	return new(indexMap).align(oldASNs, newASNs)
}

// deltaCols encodes cur as a delta against old the way Append does.
func deltaCols(old, cur *Snapshot) []segColumn {
	return encodeDelta(old, cur, mapIndexes(old.ASNs, cur.ASNs), diffLinks(old, cur))
}

// replayerAt returns a replayer whose working epoch is s, loaded the
// way a chain's checkpoint is.
func replayerAt(t testing.TB, s *Snapshot) *replayer {
	t.Helper()
	img, _ := encodeSegment(kindFull, 0, 0, encodeFull(s))
	_, cols, _, err := parseSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	rp := new(replayer)
	if err := rp.full(cols); err != nil {
		t.Fatal(err)
	}
	return rp
}

// withColumn returns cols with one column's payload replaced.
func withColumn(cols []segColumn, id byte, payload []byte) []segColumn {
	out := append([]segColumn(nil), cols...)
	for i := range out {
		if out[i].id == id {
			out[i].payload = payload
			return out
		}
	}
	panic(fmt.Sprintf("no column %d", id))
}

// hugeBlockLength is a segment whose header is valid and whose first
// block claims a payload of 2^63-1 bytes. The length is read before
// any CRC covers it, so this is one flipped varint away from a real
// segment.
func hugeBlockLength(kind byte, epoch, base uint32) []byte {
	img, _ := encodeSegment(kind, epoch, base, nil)
	img = img[:segHeaderSize]
	img = append(img, colASNs)
	img = binary.AppendUvarint(img, 0x7FFFFFFFFFFFFFFF)
	return append(img, 1, 2, 3, 4)
}

// TestCorruptLengthsAreErrors feeds every length- or count-prefixed
// decoder a value far past its input. Each must answer with an error
// before it slices or allocates anything.
func TestCorruptLengthsAreErrors(t *testing.T) {
	s0, s1 := twoEpochs(t)
	huge := binary.AppendUvarint(nil, 1<<62)

	decodeImage := func(kind byte, cols []segColumn) error {
		img, _ := encodeSegment(kind, 1, 0, cols)
		_, parsed, _, err := parseSegment(img)
		if err != nil {
			return fmt.Errorf("crafted image must frame cleanly: %w", err)
		}
		rp := replayerAt(t, s0)
		if kind == kindFull {
			return rp.full(parsed)
		}
		return rp.delta(parsed)
	}
	full, delta := encodeFull(s1), deltaCols(s0, s1)

	cases := []struct {
		name string
		run  func() error
	}{
		{"block length", func() error { _, _, _, err := parseSegment(hugeBlockLength(kindFull, 0, 0)); return err }},
		{"ASN count", func() error { return decodeImage(kindFull, withColumn(full, colASNs, huge)) }},
		{"clique count", func() error { return decodeImage(kindFull, withColumn(full, colClique, huge)) }},
		{"clique gap", func() error {
			// Two entries, the second gap 2^64-1: the sum must not wrap
			// back below the first and pass for ascending.
			p := binary.AppendUvarint([]byte{2, 5}, 1<<64-1)
			return decodeImage(kindFull, withColumn(full, colClique, p))
		}},
		{"step-name count", func() error { return decodeImage(kindFull, withColumn(full, colStepNames, huge)) }},
		{"step-name length", func() error {
			return decodeImage(kindFull, withColumn(full, colStepNames, append([]byte{1}, huge...)))
		}},
		{"link count", func() error { return decodeImage(kindFull, withColumn(full, colLinks, huge)) }},
		{"link position gap", func() error {
			// One link whose A gap is 2^64-1: it must not wrap into range.
			p := binary.AppendUvarint([]byte{1}, 1<<64-1)
			return decodeImage(kindFull, withColumn(full, colLinks, append(p, 0, 1)))
		}},
		{"slab total", func() error { return decodeImage(kindFull, withColumn(full, colConeWords, huge)) }},
		{"removed-ASN count", func() error { return decodeImage(kindDelta, withColumn(delta, dcolRemovedASNs, huge)) }},
		{"removed ASN not in base", func() error {
			return decodeImage(kindDelta, withColumn(delta, dcolRemovedASNs, encodeAscendingU32(nil, []uint32{s0.ASNs[0] + 1<<30})))
		}},
		{"added ASN already in base", func() error {
			return decodeImage(kindDelta, withColumn(delta, dcolAddedASNs, encodeAscendingU32(nil, s0.ASNs[:1])))
		}},
		{"sparse count", func() error { return decodeImage(kindDelta, withColumn(delta, dcolDegree, huge)) }},
		{"removed-link count", func() error { return decodeImage(kindDelta, withColumn(delta, dcolLinksRem, huge)) }},
		{"bit-gap total", func() error { return decodeImage(kindDelta, withColumn(delta, dcolConeXor, huge)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("decoded without error")
			}
			if !strings.HasPrefix(err.Error(), "warehouse: ") || strings.Contains(err.Error(), "must frame cleanly") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// outOfRange lists well-framed segments (CRCs and trailer valid) that
// hold a count their column cannot: s1 in full, or as a delta on s0,
// with one value past its type, negative, or made so by a delta.
func outOfRange(s0, s1 *Snapshot) []struct {
	name string
	kind byte
	cols []segColumn
} {
	counts := func(first int64, rest []int32) []byte {
		out := binary.AppendVarint(nil, first)
		return encodeI32Column(out, rest[1:])
	}
	scalars := func(pathCount, links uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, pathCount), links)
	}
	// One sparse entry at a position s1 carries over from s0 with a
	// non-zero cone-prefix total, so every diff below lands on a count.
	m, carried := mapIndexes(s0.ASNs, s1.ASNs), int32(-1)
	for np, op := range m.newToOld {
		if op >= 0 && s0.ConePrefixes[op] > 0 {
			carried = int32(np)
			break
		}
	}
	sparse := func(diff int64) []byte {
		return encodeSparse(nil, []sparseEntry{{pos: carried, diff: diff}})
	}
	full, delta := encodeFull(s1), deltaCols(s0, s1)
	return []struct {
		name string
		kind byte
		cols []segColumn
	}{
		{"transit degree 2^40+3", kindFull, withColumn(full, colTransitDeg, counts(1<<40+3, s1.TransitDegree))},
		{"negative transit degree", kindFull, withColumn(full, colTransitDeg, counts(-7, s1.TransitDegree))},
		{"negative degree", kindFull, withColumn(full, colDegree, counts(-1, s1.Degree))},
		{"negative cone prefixes", kindFull, withColumn(full, colConePrefixes,
			encodeI64Column(binary.AppendVarint(nil, -1), s1.ConePrefixes[1:]))},
		{"path count 2^64-1", kindFull, withColumn(full, colScalars, scalars(1<<64-1, uint64(len(s1.Links))))},
		{"link count 2^63", kindFull, withColumn(full, colScalars, scalars(uint64(s1.PathCount), 1<<63))},
		{"transit degree delta past int32", kindDelta, withColumn(delta, dcolTransitDeg, sparse(1<<40))},
		{"degree delta below zero", kindDelta, withColumn(delta, dcolDegree, sparse(-1<<40))},
		{"cone-prefix delta past int64", kindDelta, withColumn(delta, dcolConePref, sparse(math.MaxInt64))},
		{"cone-prefix delta below zero", kindDelta, withColumn(delta, dcolConePref, sparse(math.MinInt64))},
	}
}

// unwritable lists well-framed segments (CRCs and trailer valid) whose
// link columns say what the pipeline cannot write: s1 in full, or as a
// delta on s0, with a step-name column holding a name no core.Step has,
// a scalar column recording a link count the link column does not hold,
// a link column (full, removed, added or changed) holding an entry that
// does not sort strictly after its predecessor or whose ends are not
// A < B, or an added link the predecessor already holds. Where the bad
// column holds one link more, the scalar count says so too, so only the
// ordering refuses it.
func unwritable(s0, s1 *Snapshot) []struct {
	name string
	kind byte
	cols []segColumn
} {
	names := newStepTable(s1.Links).names
	renamed := append([]string{"sideways"}, names[1:]...) // the first link's step
	extra := append(slices.Clone(names), "sideways")      // no link's step
	scalars := func(links int) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(s1.PathCount)), uint64(links))
	}
	full, delta := encodeFull(s1), deltaCols(s0, s1)
	steps, d := newStepTable(s1.Links), diffLinks(s0, s1)
	links := func(ls []LinkRec) []byte { return encodeLinks(nil, ls, steps) }
	repeated := func(ls []LinkRec) []LinkRec { return append([]LinkRec{ls[0]}, ls...) }
	swapped := func(ls []LinkRec) []LinkRec { // the first two links under one A
		ls = slices.Clone(ls)
		i := 0
		for i+2 < len(ls) && ls[i].A != ls[i+1].A {
			i++
		}
		ls[i], ls[i+1] = ls[i+1], ls[i]
		return ls
	}
	reversed := slices.Clone(s1.Links) // the last link B→A: still after its predecessor
	last := &reversed[len(reversed)-1]
	last.A, last.B = last.B, last.A
	// held is the added column with one link more: the first of s1 that
	// the delta neither adds nor relabels, so s0 holds it already.
	touched := map[[2]int32]bool{}
	for _, l := range append(slices.Clone(d.added), d.changed...) {
		touched[[2]int32{l.A, l.B}] = true
	}
	var held []LinkRec
	for i, l := range s1.Links {
		if !touched[[2]int32{l.A, l.B}] {
			at, _ := slices.BinarySearchFunc(d.added, l, func(x, y LinkRec) int {
				return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
			})
			held = slices.Insert(slices.Clone(d.added), at, s1.Links[i])
			break
		}
	}
	oneMore := func(cols []segColumn) []segColumn { return withColumn(cols, colScalars, scalars(len(s1.Links)+1)) }
	return []struct {
		name string
		kind byte
		cols []segColumn
	}{
		{"full: unknown step name", kindFull, withColumn(full, colStepNames, encodeStepNames(nil, renamed))},
		{"delta: unknown step name", kindDelta, withColumn(delta, colStepNames, encodeStepNames(nil, extra))},
		{"full: link count one short", kindFull, withColumn(full, colScalars, scalars(len(s1.Links)-1))},
		{"delta: link count one over", kindDelta, withColumn(delta, colScalars, scalars(len(s1.Links)+1))},
		{"full: first link repeated", kindFull, oneMore(withColumn(full, colLinks, links(repeated(s1.Links))))},
		{"full: two links under one A swapped", kindFull, withColumn(full, colLinks, links(swapped(s1.Links)))},
		{"full: a link's ends reversed", kindFull, withColumn(full, colLinks, links(reversed))},
		{"delta: first removed link repeated", kindDelta, withColumn(delta, dcolLinksRem, encodePosPairs(nil, repeated(d.removed)))},
		{"delta: two removed links swapped", kindDelta, withColumn(delta, dcolLinksRem, encodePosPairs(nil, swapped(d.removed)))},
		{"delta: first added link repeated", kindDelta, oneMore(withColumn(delta, dcolLinksAdd, links(repeated(d.added))))},
		{"delta: two added links swapped", kindDelta, withColumn(delta, dcolLinksAdd, links(swapped(d.added)))},
		{"delta: added link the predecessor holds", kindDelta, oneMore(withColumn(delta, dcolLinksAdd, links(held)))},
		{"delta: first changed link repeated", kindDelta, withColumn(delta, dcolLinksChg, links(repeated(d.changed)))},
		{"delta: two changed links swapped", kindDelta, withColumn(delta, dcolLinksChg, links(swapped(d.changed)))},
	}
}

// refusal decodes a crafted segment on a replayer whose working epoch is
// s0 and returns the decoder's error, failing t if there is none or if
// the refused segment moved the working epoch.
func refusal(t *testing.T, s0 *Snapshot, kind byte, crafted []segColumn) error {
	t.Helper()
	img, _ := encodeSegment(kind, 1, 0, crafted)
	_, cols, _, err := parseSegment(img)
	if err != nil {
		t.Fatalf("crafted image must frame cleanly: %v", err)
	}
	rp := replayerAt(t, s0)
	before := cloneSnapshot(rp.snapshot()) // a snapshot holds the working links, so keep a copy
	if kind == kindFull {
		err = rp.full(cols)
	} else {
		err = rp.delta(cols)
	}
	if err == nil {
		s := rp.snapshot()
		t.Fatalf("decoded: transit degree %d, degree %d, cone prefixes %d, path count %d, links %d",
			s.TransitDegree[0], s.Degree[0], s.ConePrefixes[0], s.PathCount, len(s.Links))
	}
	if !reflect.DeepEqual(rp.snapshot(), before) {
		t.Errorf("refused segment (%v) moved the working epoch", err)
	}
	return err
}

// TestOutOfRangeCountsAreRefused: a count the decoder would have to
// narrow or that is negative — in a full column, a scalar, or as the
// result of a delta — is refused with an error naming its offset, and a
// refused delta leaves the working epoch at its predecessor.
func TestOutOfRangeCountsAreRefused(t *testing.T) {
	s0, s1 := twoEpochs(t)
	for _, tc := range outOfRange(s0, s1) {
		t.Run(tc.name, func(t *testing.T) {
			if err := refusal(t, s0, tc.kind, tc.cols); !strings.Contains(err.Error(), "at offset ") {
				t.Errorf("error names no offset: %v", err)
			}
		})
	}
}

// TestUnwritableLinkColumnsAreRefused: a step name no core.Step has is
// refused with an error naming its offset, and a recorded link count
// that is not the link column's length is refused too — in a full epoch
// and in a delta, leaving the working epoch where it was.
func TestUnwritableLinkColumnsAreRefused(t *testing.T) {
	s0, s1 := twoEpochs(t)
	for _, tc := range unwritable(s0, s1) {
		t.Run(tc.name, func(t *testing.T) {
			err := refusal(t, s0, tc.kind, tc.cols)
			if strings.Contains(tc.name, "step name") && !strings.Contains(err.Error(), "at offset ") {
				t.Errorf("error names no offset: %v", err)
			}
		})
	}
}

// TestOpenRecoversFromCorruptLength: a tail segment damaged in a length
// or a count is a tail that never landed — Open keeps the good prefix
// and serves the previous epoch, as for any other corruption.
func TestOpenRecoversFromCorruptLength(t *testing.T) {
	s0, s1 := twoEpochs(t)
	src := t.TempDir()
	st, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Snapshot{s0, s1} {
		if _, err := st.Append(s, "epoch", fmt.Sprintf("etag-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	manRaw, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(manRaw, &man); err != nil {
		t.Fatal(err)
	}
	tail := man.Epochs[1]
	if tail.Kind != "delta" {
		t.Fatalf("epoch 1 stored as %s, want a delta", tail.Kind)
	}

	// The count image is checksummed end to end; record its hash in the
	// manifest so Open gets past the content-hash comparison and into
	// the column decoders.
	countImg, countHash := encodeSegment(kindDelta, 1, 0,
		withColumn(deltaCols(s0, s1), dcolRemovedASNs, binary.AppendUvarint(nil, 1<<62)))
	for name, tc := range map[string]struct {
		img  []byte
		hash string
	}{
		"block length": {hugeBlockLength(kindDelta, 1, 0), tail.Hash},
		"entry count":  {countImg, fmt.Sprintf("%016x", countHash)},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			patched := man
			patched.Epochs = append([]EpochInfo(nil), man.Epochs...)
			patched.Epochs[1].Hash = tc.hash
			raw, err := json.Marshal(&patched)
			if err != nil {
				t.Fatal(err)
			}
			seg0, err := os.ReadFile(filepath.Join(src, man.Epochs[0].File))
			if err != nil {
				t.Fatal(err)
			}
			for file, data := range map[string][]byte{manifestName: raw, man.Epochs[0].File: seg0, tail.File: tc.img} {
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery must not error: %v", err)
			}
			if _, info, ok := re.Latest(); !ok || re.Len() != 1 || info.ETag != "etag-0" {
				t.Fatalf("reopened with %d epochs, latest etag %q; want 1 and etag-0", re.Len(), info.ETag)
			}
		})
	}
}

// FuzzParseSegment drives raw bytes through the whole read path of one
// segment — framing, checksums, then the replayer's full or delta path
// against a real base epoch. Any input may be refused; none may panic,
// a refused one must leave the working epoch exactly at the base, and
// whatever decodes must survive a full re-encode unchanged. The bases
// carry crafted rows (craftRows), and whatever decodes must pass the
// shape check Append holds snapshots to — rows strictly ascending,
// members below n — the invariant the merge and the encoders rest on: a
// delta with an even base replays on the first epoch, one with an odd
// base on the second, so seeds can move the AS set both ways. Two seeds
// carry a padding bit, one in a full literal run and one in a delta gap.
func FuzzParseSegment(f *testing.F) {
	s0, s1 := twoEpochs(f)
	gone := droppedBy(s1, s0)
	if gone < 0 {
		f.Fatal("the second epoch holds no AS the first lacks")
	}
	bases := [2]*Snapshot{craftRows(f, s0, -1), craftRows(f, s1, gone)}
	fullImg, _ := encodeSegment(kindFull, 0, 0, encodeFull(s0))
	deltaImg, _ := encodeSegment(kindDelta, 1, 0, deltaCols(s0, s1))
	f.Add(fullImg)
	f.Add(deltaImg)
	f.Add(hugeBlockLength(kindFull, 0, 0))
	f.Add([]byte{})
	for _, fault := range TailFaults { // sealed, refused late: the seeds that reach the mutating half
		img, _ := SealedFaultyDelta(s0, s1, 1, fault)
		f.Add(img)
	}
	for _, img := range [][]byte{fullImg, deltaImg} {
		for _, v := range chaos.CorruptVariants(20130401, img, 8) {
			f.Add(v)
		}
	}
	// Crafted rows on the wire: as a full epoch, gaining ASes, losing them
	// (one of them a crafted row's only member), and keeping the AS set.
	for _, seed := range []struct {
		kind        byte
		epoch, base uint32
		cols        []segColumn
	}{
		{kindFull, 0, 0, encodeFull(bases[0])},
		{kindFull, 1, 1, encodeFull(bases[1])},
		{kindDelta, 1, 0, deltaCols(bases[0], bases[1])},
		{kindDelta, 2, 1, deltaCols(bases[1], bases[0])},
		{kindDelta, 2, 1, deltaCols(bases[1], s0)},
		{kindDelta, 1, 0, deltaCols(bases[0], s0)},
	} {
		img, _ := encodeSegment(seed.kind, seed.epoch, seed.base, seed.cols)
		f.Add(img)
	}
	for _, seed := range outOfRange(s0, s1) {
		img, _ := encodeSegment(seed.kind, 1, 0, seed.cols)
		f.Add(img)
	}
	for _, seed := range unwritable(s0, s1) {
		img, _ := encodeSegment(seed.kind, 1, 0, seed.cols)
		f.Add(img)
	}
	for _, seed := range []struct {
		kind byte
		cols []segColumn
	}{
		{kindFull, withColumn(encodeFull(bases[1]), colConeWords, oracleWordsRLE(nil, padded(bases[1])))},
		{kindDelta, withColumn(deltaCols(bases[0], bases[1]), dcolConeXor,
			oracleConeXor(nil, denseSlab(bases[0]), padded(bases[1]), mapIndexes(bases[0].ASNs, bases[1].ASNs)))},
	} {
		img, _ := encodeSegment(seed.kind, 1, 0, seed.cols)
		f.Add(img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, cols, _, err := parseSegment(data)
		if err != nil {
			return
		}
		rp := replayerAt(t, bases[hdr.base%2])
		before := cloneSnapshot(rp.snapshot())
		if hdr.kind == kindFull {
			err = rp.full(cols)
		} else {
			err = rp.delta(cols)
		}
		if err != nil {
			if !reflect.DeepEqual(rp.snapshot(), before) {
				t.Fatalf("refused segment (%v) moved the working epoch", err)
			}
			return
		}
		s := rp.snapshot()
		if err := s.check(); err != nil {
			t.Fatalf("decoded a snapshot the store refuses: %v", err)
		}
		img, _ := encodeSegment(kindFull, hdr.epoch, hdr.epoch, encodeFull(s))
		_, cols, _, err = parseSegment(img)
		if err != nil {
			t.Fatalf("re-encoded segment does not parse: %v", err)
		}
		again := new(replayer)
		if err := again.full(cols); err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !reflect.DeepEqual(s, again.snapshot()) {
			t.Fatal("snapshot changed across a re-encode")
		}
	})
}
