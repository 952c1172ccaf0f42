// The warehouse suite is an external test package so it can prove the
// property the store exists for — a decoded epoch rebuilds the exact
// apiserver serving snapshot, ETag and all — by importing apiserver,
// which itself imports warehouse.
package warehouse_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// buildSeries simulates an evolving topology and infers each snapshot,
// returning the columnar epochs and their serving ETags.
func buildSeries(t testing.TB, epochs, scale, vps int) ([]*warehouse.Snapshot, []string) {
	t.Helper()
	p := topology.DefaultParams(42)
	p.ASes = scale
	e := topology.DefaultEvolveParams()
	e.Snapshots = epochs
	series := topology.GenerateSeries(p, e)
	snaps := make([]*warehouse.Snapshot, len(series))
	etags := make([]string, len(series))
	for i, topo := range series {
		opts := bgpsim.DefaultOptions(42 + 1000*int64(i))
		opts.NumVPs = vps
		sim, err := bgpsim.Run(topo, opts)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		res := core.Infer(clean, core.Options{})
		snaps[i] = warehouse.FromResult(res)
		etags[i] = apiserver.BuildSnapshot(snaps[i]).ETag()
	}
	return snaps, etags
}

// fill appends every snapshot to a fresh store in dir.
func fill(t testing.TB, dir string, snaps []*warehouse.Snapshot, etags []string, opts warehouse.Options) *warehouse.Store {
	t.Helper()
	st, err := warehouse.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		if _, err := st.Append(snap, "epoch", etags[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return st
}

// TestRoundTripByteIdentity is the core fidelity property: every epoch
// decoded from disk is deep-equal to the snapshot that was appended
// (full and delta paths both), and rebuilds the identical apiserver
// ETag — the strong validator over the serving bytes.
func TestRoundTripByteIdentity(t *testing.T) {
	snaps, etags := buildSeries(t, 5, 400, 8)
	dir := t.TempDir()
	fill(t, dir, snaps, etags, warehouse.Options{})

	st, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(snaps) {
		t.Fatalf("reopened with %d epochs, want %d", st.Len(), len(snaps))
	}
	for i := range snaps {
		dec, err := st.Snapshot(uint32(i))
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if !reflect.DeepEqual(dec, snaps[i]) {
			t.Errorf("epoch %d: decoded snapshot differs from original", i)
		}
		if got := apiserver.BuildSnapshot(dec).ETag(); got != etags[i] {
			t.Errorf("epoch %d: ETag %s after round trip, want %s", i, got, etags[i])
		}
	}
}

// TestWorkerCountInvariance re-infers the same corpus at different
// worker-pool sizes (GOMAXPROCS): the snapshots, their ETags, and the
// stored bytes must be identical — the determinism contract of the
// whole pipeline.
func TestWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base, baseTags := buildSeries(t, 3, 400, 8)
	for _, workers := range []int{2, 5} {
		runtime.GOMAXPROCS(workers)
		again, tags := buildSeries(t, 3, 400, 8)
		for i := range base {
			if !reflect.DeepEqual(again[i], base[i]) {
				t.Errorf("GOMAXPROCS=%d epoch %d: snapshot differs from GOMAXPROCS=1", workers, i)
			}
			if tags[i] != baseTags[i] {
				t.Errorf("GOMAXPROCS=%d epoch %d: ETag %s, want %s", workers, i, tags[i], baseTags[i])
			}
		}
	}
	// And every epoch reopens to the ETag it was inferred with.
	dir := t.TempDir()
	fill(t, dir, base, baseTags, warehouse.Options{})
	st, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		dec, err := st.Snapshot(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := apiserver.BuildSnapshot(dec).ETag(); got != baseTags[i] {
			t.Errorf("epoch %d decoded: ETag %s, want %s", i, got, baseTags[i])
		}
	}
}

// TestFromResultOwnsItsSlab pins the hand-off FromResult relies on: the
// cone engine gives every call a product of its own, packed into lists
// of its own, so a snapshot's cone columns — the packed product,
// uncopied — are neither shared with nor written by a later conversion
// of the same result.
func TestFromResultOwnsItsSlab(t *testing.T) {
	p := topology.DefaultParams(11)
	p.ASes = 200
	sim, err := bgpsim.Run(topology.Generate(p), bgpsim.DefaultOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	res := core.Infer(sim.Dataset, core.Options{Sanitize: true})
	snap := warehouse.FromResult(res)
	start, members := slices.Clone(snap.ConeStart), slices.Clone(snap.ConeMembers)
	again := warehouse.FromResult(res)
	if &again.ConeStart[0] == &snap.ConeStart[0] || &again.ConeMembers[0] == &snap.ConeMembers[0] {
		t.Fatal("two FromResult snapshots share a cone column")
	}
	if !slices.Equal(snap.ConeStart, start) || !slices.Equal(snap.ConeMembers, members) {
		t.Fatal("a later FromResult call wrote to an earlier snapshot's cone columns")
	}
	if !reflect.DeepEqual(again, snap) {
		t.Fatal("FromResult is not a function of the result")
	}
}

// inferredCorpus infers a simulated collection at the given size from
// the raw rows, sanitizing them, as the asrank CLI does.
func inferredCorpus(tb testing.TB, seed int64, ases, vps int) *core.Result {
	tb.Helper()
	p := topology.DefaultParams(seed)
	p.ASes = ases
	opts := bgpsim.DefaultOptions(seed)
	opts.NumVPs = vps
	sim, err := bgpsim.Run(topology.Generate(p), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return core.Infer(sim.Dataset, core.Options{Sanitize: true})
}

// TestFromResultCreditsSequencesAsRows: crediting each distinct path
// of the kept corpus's grouping once sets the cones crediting every row
// sets, so a Result whose corpus was built by hand, with no grouping,
// gives the snapshot Infer's does.
func TestFromResultCreditsSequencesAsRows(t *testing.T) {
	for _, seed := range []int64{3, 12} {
		res := inferredCorpus(t, seed, 400, 8)
		if g := res.Dataset.Groups(); g == nil || len(g.Hops) >= len(res.Dataset.Paths) {
			t.Fatalf("seed %d: the %d kept rows carry no grouping, or no row shares a path", seed, len(res.Dataset.Paths))
		}
		byHand := *res
		byHand.Dataset = &paths.Dataset{Paths: res.Dataset.Paths}
		if !reflect.DeepEqual(warehouse.FromResult(&byHand), warehouse.FromResult(res)) {
			t.Errorf("seed %d: the snapshot credited per row differs from the one credited per sequence", seed)
		}
	}
}

// TestFromResultAfterRowsAreFiltered: a caller may edit the kept corpus
// after Infer. Dropping one vantage point's rows leaves a grouping that
// no longer describes them, and FromResult credits the rows that are
// left: the snapshot of the same rows built by hand, which holds fewer
// cone members than the whole corpus's.
func TestFromResultAfterRowsAreFiltered(t *testing.T) {
	res := inferredCorpus(t, 5, 400, 8)
	whole := warehouse.FromResult(res)
	vp := res.Dataset.Paths[0].VP()
	res.Dataset.Paths = slices.DeleteFunc(res.Dataset.Paths, func(p paths.Path) bool { return p.VP() == vp })
	byHand := *res
	byHand.Dataset = &paths.Dataset{Paths: res.Dataset.Paths}
	got, want := warehouse.FromResult(res), warehouse.FromResult(&byHand)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("without VP %d's rows, %d cone members; the same rows built by hand give %d", vp, len(got.ConeMembers), len(want.ConeMembers))
	}
	if len(want.ConeMembers) >= len(whole.ConeMembers) {
		t.Errorf("VP %d's rows hold no cone member of their own (%d members with them, %d without)", vp, len(whole.ConeMembers), len(want.ConeMembers))
	}
}

// BenchmarkFromResult converts one 2k-AS inference, credited per
// distinct sequence as Infer's Result is and per row as one whose
// corpus carries no grouping.
func BenchmarkFromResult(b *testing.B) {
	res := inferredCorpus(b, 1, 2000, 12)
	byHand := *res
	byHand.Dataset = &paths.Dataset{Paths: res.Dataset.Paths}
	for _, tc := range []struct {
		name string
		res  *core.Result
	}{{"sequences", res}, {"rows", &byHand}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				warehouse.FromResult(tc.res)
			}
		})
	}
}

// TestDeltaChainBudget is the storage acceptance bound: 12+ consecutive
// epochs must cost less than 3x one full epoch of the head topology.
func TestDeltaChainBudget(t *testing.T) {
	snaps, etags := buildSeries(t, 13, 400, 8)
	st := fill(t, t.TempDir(), snaps, etags, warehouse.Options{})
	allFull := fill(t, t.TempDir(), snaps, etags, warehouse.Options{CheckpointEvery: 1})

	var total int64
	for _, info := range st.Epochs() {
		total += info.Bytes
	}
	fullInfos := allFull.Epochs()
	headFull := fullInfos[len(fullInfos)-1].Bytes
	if total >= 3*headFull {
		t.Errorf("%d epochs cost %d bytes, want < 3x one full epoch (%d)", len(snaps), total, headFull)
	}
}

// copyDir clones a store directory so each corruption variant starts
// from a pristine copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryFromCorruptTail damages the newest segment with the
// chaos corpus corrupter (bit flips, truncations, insertions) and
// requires every variant to reopen at the last good epoch — never an
// error, never a wrong snapshot.
func TestRecoveryFromCorruptTail(t *testing.T) {
	snaps, etags := buildSeries(t, 4, 300, 6)
	src := t.TempDir()
	st := fill(t, src, snaps, etags, warehouse.Options{})
	infos := st.Epochs()
	lastSeg := infos[len(infos)-1].File
	raw, err := os.ReadFile(filepath.Join(src, lastSeg))
	if err != nil {
		t.Fatal(err)
	}

	variants := chaos.CorruptVariants(7, raw, 24)
	variants = append(variants, nil) // fully truncated tail
	tested := 0
	for vi, v := range variants {
		if bytes.Equal(v, raw) {
			continue // the corrupter may no-op; nothing to recover from
		}
		dir := copyDir(t, src)
		if err := os.WriteFile(filepath.Join(dir, lastSeg), v, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := warehouse.Open(dir, warehouse.Options{})
		if err != nil {
			t.Fatalf("variant %d: recovery must not error: %v", vi, err)
		}
		if re.Len() != len(snaps)-1 {
			t.Fatalf("variant %d: reopened with %d epochs, want %d", vi, re.Len(), len(snaps)-1)
		}
		_, info, ok := re.Latest()
		if !ok || info.ETag != etags[len(snaps)-2] {
			t.Fatalf("variant %d: latest epoch etag %q, want %q", vi, info.ETag, etags[len(snaps)-2])
		}
		tested++
	}
	if tested < 10 {
		t.Fatalf("only %d corruption variants actually differed; corpus too tame", tested)
	}

	// A missing tail segment recovers the same way, and the store is
	// writable again: re-appending the lost epoch overwrites the hole.
	dir := copyDir(t, src)
	if err := os.Remove(filepath.Join(dir, lastSeg)); err != nil {
		t.Fatal(err)
	}
	re, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(snaps)-1 {
		t.Fatalf("reopened with %d epochs, want %d", re.Len(), len(snaps)-1)
	}
	if _, err := re.Append(snaps[len(snaps)-1], "redo", etags[len(snaps)-1]); err != nil {
		t.Fatal(err)
	}
	dec, err := re.Snapshot(uint32(len(snaps) - 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := apiserver.BuildSnapshot(dec).ETag(); got != etags[len(snaps)-1] {
		t.Errorf("re-appended epoch ETag %s, want %s", got, etags[len(snaps)-1])
	}
}

// TestCorruptManifestIsAnError: segment damage recovers, but a manifest
// that fails to parse cannot happen under atomic rename — treat it as
// real damage, not as an empty store.
func TestCorruptManifestIsAnError(t *testing.T) {
	snaps, etags := buildSeries(t, 2, 300, 6)
	dir := t.TempDir()
	fill(t, dir, snaps, etags, warehouse.Options{})
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := warehouse.Open(dir, warehouse.Options{}); err == nil {
		t.Fatal("opening a store with a corrupt manifest must fail")
	}
}

// relsOf flattens a snapshot's links into an ASN-keyed relationship map.
func relsOf(s *warehouse.Snapshot) map[[2]uint32]topology.Relationship {
	out := make(map[[2]uint32]topology.Relationship, len(s.Links))
	for _, l := range s.Links {
		out[[2]uint32{s.ASNs[l.A], s.ASNs[l.B]}] = l.Rel
	}
	return out
}

// TestHistoryDiff checks the folded time-travel diff against a direct
// comparison of the two endpoint snapshots: same changed set, same
// old/new labels, intermediate flaps dropped.
func TestHistoryDiff(t *testing.T) {
	snaps, etags := buildSeries(t, 4, 300, 6)
	st := fill(t, t.TempDir(), snaps, etags, warehouse.Options{})
	h := st.History()
	if h.Len() != len(snaps) {
		t.Fatalf("history has %d epochs, want %d", h.Len(), len(snaps))
	}

	for from := 0; from < len(snaps)-1; from++ {
		to := len(snaps) - 1
		changes, err := h.Diff(uint32(from), uint32(to))
		if err != nil {
			t.Fatal(err)
		}
		oldRels, newRels := relsOf(snaps[from]), relsOf(snaps[to])
		expected := 0
		for k, rel := range newRels {
			if oldRels[k] != rel {
				expected++
			}
		}
		for k := range oldRels {
			if _, ok := newRels[k]; !ok {
				expected++
			}
		}
		if len(changes) != expected {
			t.Errorf("diff %d..%d has %d changes, want %d", from, to, len(changes), expected)
		}
		for _, c := range changes {
			k := [2]uint32{c.A, c.B}
			if oldRels[k] != c.Old || newRels[k] != c.New {
				t.Errorf("diff %d..%d: (%d,%d) %v->%v, snapshots say %v->%v",
					from, to, c.A, c.B, c.Old, c.New, oldRels[k], newRels[k])
			}
			if c.Old == c.New {
				t.Errorf("diff %d..%d: (%d,%d) reports a no-op change", from, to, c.A, c.B)
			}
		}
	}

	if _, err := h.Diff(2, 1); err == nil {
		t.Error("diff with from > to must fail")
	}
	if _, err := h.Diff(0, uint32(len(snaps))); err == nil {
		t.Error("diff beyond the last epoch must fail")
	}
}

// TestHistoryASN checks a per-AS trajectory: every epoch answered, the
// rank/cone figures matching the epoch's own snapshot, and the chain
// ETag moving when (and only when) an epoch is appended.
func TestHistoryASN(t *testing.T) {
	snaps, etags := buildSeries(t, 3, 300, 6)
	dir := t.TempDir()
	st := fill(t, dir, snaps[:2], etags[:2], warehouse.Options{})
	h := st.History()
	tagBefore := h.ETag()

	last := snaps[1]
	top := last.Rank()[0]
	asn := last.ASNs[top] // the top-ranked AS of epoch 1
	eps := h.ASN(asn)
	if len(eps) != 2 {
		t.Fatalf("trajectory has %d epochs, want 2", len(eps))
	}
	if !eps[1].Present || eps[1].Rank != 1 {
		t.Errorf("top AS of epoch 1: %+v", eps[1])
	}
	if int(eps[1].Degree) != int(last.Degree[top]) {
		t.Errorf("degree %d, want %d", eps[1].Degree, last.Degree[top])
	}

	if _, err := st.Append(snaps[2], "next", etags[2]); err != nil {
		t.Fatal(err)
	}
	if st.History().ETag() == tagBefore {
		t.Error("chain ETag unchanged after append")
	}
	if got := st.History().Len(); got != 3 {
		t.Errorf("history has %d epochs after append, want 3", got)
	}
	// The pre-append index is immutable: still two epochs.
	if h.Len() != 2 {
		t.Errorf("old history handle grew to %d epochs", h.Len())
	}
}

// TestAppendNoteRoundTrip proves a manifest annotation survives the
// write → reopen cycle verbatim, stays opaque (epoch identity — hash,
// ETag, decoded bytes — is unchanged by it), and mixes freely with
// un-annotated epochs.
func TestAppendNoteRoundTrip(t *testing.T) {
	snaps, etags := buildSeries(t, 3, 400, 8)
	dir := t.TempDir()
	st, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	note := json.RawMessage(`{"epoch":1,"decision":"rebuild","reason":"initial","totalMillis":12.5}`)
	if _, err := st.AppendNote(snaps[0], "annotated", etags[0], note); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(snaps[1], "plain", etags[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendNote(snaps[2], "annotated-too", etags[2], json.RawMessage(`"free-form"`)); err != nil {
		t.Fatal(err)
	}

	re, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eps := re.Epochs()
	if len(eps) != 3 {
		t.Fatalf("reopened with %d epochs, want 3", len(eps))
	}
	// The manifest is written indented, so compare compacted JSON: the
	// annotation must be semantically identical, not byte-identical.
	compact := func(raw json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatalf("compact %s: %v", raw, err)
		}
		return buf.String()
	}
	if got := compact(eps[0].Note); got != string(note) {
		t.Errorf("epoch 0 note = %s, want %s", got, note)
	}
	if eps[1].Note != nil {
		t.Errorf("epoch 1 grew a note: %s", eps[1].Note)
	}
	if got := compact(eps[2].Note); got != `"free-form"` {
		t.Errorf("epoch 2 note = %s", got)
	}

	// Opaqueness: identity fields match a store built without notes.
	plainDir := t.TempDir()
	plain := fill(t, plainDir, snaps, etags, warehouse.Options{})
	for i, pe := range plain.Epochs() {
		if pe.Hash != eps[i].Hash || pe.ETag != eps[i].ETag || pe.Bytes != eps[i].Bytes {
			t.Errorf("epoch %d identity diverges with a note: %+v vs %+v", i, eps[i], pe)
		}
	}
	dec, err := re.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, snaps[0]) {
		t.Error("annotated epoch decodes differently")
	}
}
