package warehouse

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/topology"
)

// synthSeries fabricates a chain of valid snapshots around n ASes
// without running inference, so chain-depth tests and benchmarks set up
// in milliseconds. Every epoch retires and admits a few ASes, redraws a
// few metrics, drops, adds and relabels links and toggles a few hundred
// cone members — the drift the delta columns exist for, with the AS
// set moved under the merge and kept. Epochs listed in still keep their
// AS set.
func synthSeries(n, epochs int, seed int64, still ...int) []*Snapshot {
	return synthChain(n, epochs, seed, false, still)
}

// tailSeries is synthSeries whose ASes leave only from among the last
// n/20 positions, so every epoch moves the AS set at the tail of the
// index: ASes enter with new, high numbers and the ones that leave are
// the newest — the shape of store_5k's chain.
func tailSeries(n, epochs int, seed int64) []*Snapshot {
	return synthChain(n, epochs, seed, true, nil)
}

func synthChain(n, epochs int, seed int64, tail bool, still []int) []*Snapshot {
	type as struct {
		td, deg int32
		pref    int64
		cone    map[uint32]bool
	}
	type link struct {
		rel  topology.Relationship
		step core.Step
	}
	rng := rand.New(rand.NewSource(seed))
	steps := []core.Step{core.StepClique, core.StepTopDown, core.StepFold, core.StepVP}
	ases := map[uint32]*as{}
	links := map[[2]uint32]link{}
	next := uint32(1000)
	order := func() []uint32 {
		out := make([]uint32, 0, len(ases))
		for a := range ases {
			out = append(out, a)
		}
		slices.Sort(out)
		return out
	}
	admit := func(asns []uint32) {
		next += 1 + uint32(rng.Intn(3))
		a := &as{td: int32(rng.Intn(40)), deg: int32(rng.Intn(90)), pref: rng.Int63n(5000), cone: map[uint32]bool{next: true}}
		ases[next] = a
		for i := 0; i < 2 && len(asns) > 0; i++ {
			peer := asns[rng.Intn(len(asns))]
			links[[2]uint32{peer, next}] = link{topology.Relationship(1 + rng.Intn(3)), steps[rng.Intn(len(steps))]}
			ases[peer].cone[next] = true
		}
	}
	for i := 0; i < n; i++ {
		admit(order()[:min(i, 30)]) // the first ASes collect the large cones
	}

	out := make([]*Snapshot, 0, epochs)
	for e := 0; e < epochs; e++ {
		asns := order()
		if e > 0 {
			if !slices.Contains(still, e) {
				for i := 0; i < 1+n/200; i++ {
					var gone uint32
					if tail {
						gone = asns[len(asns)-1-rng.Intn(n/20)]
					} else {
						gone = asns[30+rng.Intn(len(asns)-30)]
					}
					if ases[gone] == nil {
						continue
					}
					delete(ases, gone)
					for k := range links {
						if k[0] == gone || k[1] == gone {
							delete(links, k)
						}
					}
					for _, a := range ases {
						delete(a.cone, gone)
					}
				}
				for i := 0; i < 1+n/150; i++ {
					admit(order())
				}
				asns = order()
			}
			for i := 0; i < n/20; i++ {
				a, b := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
				ases[a].td, ases[a].pref = int32(rng.Intn(40)), rng.Int63n(5000)
				switch k := [2]uint32{min(a, b), max(a, b)}; {
				case a == b:
				case i%3 == 0:
					delete(links, k)
				default:
					links[k] = link{topology.Relationship(1 + rng.Intn(3)), steps[rng.Intn(len(steps))]}
				}
				if top := ases[asns[rng.Intn(30)]]; top.cone[b] && top != ases[b] {
					delete(top.cone, b)
				} else {
					top.cone[b] = true
				}
			}
		}

		s := &Snapshot{ASNs: asns, Clique: slices.Clone(asns[:5]), PathCount: int64(1000 + e), ConeStart: []int32{0}}
		for _, asn := range asns {
			a := ases[asn]
			s.TransitDegree = append(s.TransitDegree, a.td)
			s.Degree = append(s.Degree, a.deg)
			s.ConePrefixes = append(s.ConePrefixes, a.pref)
			row := make([]int32, 0, len(a.cone))
			for member := range a.cone {
				q, _ := posOf(asns, member)
				row = append(row, q)
			}
			slices.Sort(row)
			s.ConeMembers = append(s.ConeMembers, row...)
			s.ConeStart = append(s.ConeStart, int32(len(s.ConeMembers)))
		}
		for k, l := range links {
			a, _ := posOf(asns, k[0])
			b, _ := posOf(asns, k[1])
			s.Links = append(s.Links, LinkRec{A: a, B: b, Rel: l.rel, Step: l.step})
		}
		slices.SortFunc(s.Links, func(x, y LinkRec) int { return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B)) })
		out = append(out, s)
	}
	return out
}

// synthStore appends a synthetic series to a fresh store and returns it
// together with a cold reopen of the same directory.
func synthStore(t testing.TB, snaps []*Snapshot, checkpointEvery int) (appended, reopened *Store) {
	t.Helper()
	dir := t.TempDir()
	appended, err := Open(dir, Options{CheckpointEvery: checkpointEvery})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		if _, err := appended.Append(s, fmt.Sprintf("epoch-%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if reopened, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != len(snaps) {
		t.Fatalf("reopened %d epochs, appended %d", reopened.Len(), len(snaps))
	}
	return appended, reopened
}

// TestSynthSeriesRoundTrip keeps the fabricated series honest: ASes
// enter and leave, some epochs keep their AS set, and every epoch
// decodes back deep-equal to the appended snapshot at two checkpoint
// cadences.
func TestSynthSeriesRoundTrip(t *testing.T) {
	snaps := synthSeries(300, 9, 7, 3, 4)
	churned, kept := 0, 0
	for i := 1; i < len(snaps); i++ {
		if m := mapIndexes(snaps[i-1].ASNs, snaps[i].ASNs); len(m.removed)+len(m.added) == 0 {
			kept++
		} else if len(m.removed) > 0 && len(m.added) > 0 {
			churned++
		}
	}
	if kept != 2 || churned != len(snaps)-3 {
		t.Fatalf("series has %d still and %d churned epochs, want 2 and %d", kept, churned, len(snaps)-3)
	}
	for _, every := range []int{3, 16} {
		_, re := synthStore(t, snaps, every)
		for i, want := range snaps {
			got, err := re.Snapshot(uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("checkpointEvery=%d epoch %d: decoded snapshot differs from the appended one", every, i)
			}
		}
	}
}

// TestSnapshotChainAllocBound is the machine-independent guard on the
// replayer, counted in bytes: Snapshot(id) may allocate the columns of
// the epochs it replays (their segment images and decoded AS-sized
// columns); for the links, three columns at the chain's largest epoch
// — the working and the spare array, each a quarter over size, and the
// scratch a delta's added and changed links are read into — but never
// more than one column for each epoch replayed; and, for the cones, their member lists four times over at the chain's
// largest epoch — the working and the spare pair, each grown at most
// once more as the chain grows, and the exact-size copy — with a quarter
// of the lists and 8 KB per replayed epoch as slack (a -race build
// allocates ≈ 1 KB more per epoch). Nothing in it is sized by the n ×
// n-bit slab the cone columns describe: with that slab one replay of
// these chains allocated 1 218, 3 302 and 2 630 KB against budgets of
// one or two slabs (500–529 KB each at 2k ASes) plus the columns. Nor is
// anything sized by the links of every epoch: while each delta rebuilt
// its links into a column of its own, a depth-15 replay allocated
// 1 720–1 897 KB against budgets of 1 400–1 422 KB. The result's link
// column is the replayer's working array, handed over, not copied.
func TestSnapshotChainAllocBound(t *testing.T) {
	var still []int
	for e := 1; e < 17; e++ {
		still = append(still, e)
	}
	churned, kept := synthSeries(2000, 17, 11), synthSeries(2000, 17, 11, still...)
	for _, tc := range []struct {
		name  string
		snaps []*Snapshot
		every int
	}{
		{"stored full", churned, 1},
		{"depth 15", churned, 16},
		{"depth 15, AS set kept", kept, 16},
		{"depth 15, AS set moved at the tail", tailSeries(2000, 17, 11), 16},
	} {
		_, st := synthStore(t, tc.snaps, tc.every)
		const runs = 4
		var before, after runtime.MemStats
		for i := 0; i <= runs; i++ {
			if i == 1 { // the first call is a warm-up
				runtime.ReadMemStats(&before)
			}
			if _, err := st.Snapshot(15); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := int((after.TotalAlloc - before.TotalAlloc) / runs)

		columns, links, perEpoch, lists, epochs := 0, 0, 0, 0, 0
		for id := 15 - 15%tc.every; id <= 15; id++ {
			epochs++
			s := tc.snaps[id]
			columns += int(st.Epochs()[id].Bytes) + 28*len(s.ASNs)
			links = max(links, 12*len(s.Links))
			perEpoch += 12 * len(s.Links)
			lists = max(lists, 4*(len(s.ConeStart)+len(s.ConeMembers)))
		}
		links = min(3*links, perEpoch)
		slab := 8 * len(tc.snaps[15].ASNs) * wordsPerRow(len(tc.snaps[15].ASNs))
		budget := columns + links + 4*lists + lists/4 + 8<<10*epochs
		t.Logf("Snapshot(15), %s: %d KB; %d KB of columns + %d KB of links + 4 × %d KB of cone lists allow %d KB (one dense slab: %d KB)",
			tc.name, got/1024, columns/1024, links/1024, lists/1024, budget/1024, slab/1024)
		if got > budget {
			t.Errorf("Snapshot(15), %s: allocates %d KB, want <= %d KB (columns + links + 4 × cone lists)", tc.name, got/1024, budget/1024)
		}
	}
}

// TestOpenAllocBound is the byte-counted guard on a cold Open, as
// TestSnapshotChainAllocBound is on Snapshot. Open may allocate, for
// every epoch, the columns History keeps of it — the AS, metric, rank
// and cone-size columns, 28 bytes an AS, and its change list — and the
// rank sort's two scratch columns, 8 bytes an AS. For the chain it may
// allocate, at the chain's largest epoch, six link columns (working and
// spare, each made at most twice a quarter over size, and the scratch a
// delta's added and changed links are read into) and six times the cone
// lists (the same pair and the head's exact-size copy); one segment
// buffer a quarter over the largest segment; and 8 KB per epoch as
// slack. Nothing in it is sized
// by the links of every epoch: while each delta rebuilt its links into a
// column of its own and each segment was read into an image of its own,
// an Open of these chains allocated 2 738 and 2 774 KB against budgets
// of 2 059 and 2 062 KB.
func TestOpenAllocBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		snaps []*Snapshot
	}{
		{"AS set moved anywhere", synthSeries(2000, 17, 11)},
		{"AS set moved at the tail", tailSeries(2000, 17, 11)},
	} {
		st, _ := synthStore(t, tc.snaps, 16)
		const runs = 4
		var before, after runtime.MemStats
		for i := 0; i <= runs; i++ {
			if i == 1 { // the first call is a warm-up
				runtime.ReadMemStats(&before)
			}
			if _, err := Open(st.Dir(), Options{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := int((after.TotalAlloc - before.TotalAlloc) / runs)

		h, change := st.History(), int(unsafe.Sizeof(RelChange{}))
		epochs, links, lists, seg := 0, 0, 0, 0
		for id, s := range tc.snaps {
			epochs += 36*len(s.ASNs) + change*len(h.series[id].changes)
			links = max(links, 12*len(s.Links))
			lists = max(lists, 4*(len(s.ConeStart)+len(s.ConeMembers)))
			seg = max(seg, int(h.epochs[id].Bytes))
		}
		budget := epochs + 6*links + 6*lists + seg + seg/4 + 8<<10*len(tc.snaps)
		t.Logf("Open, %s: %d KB; %d KB for the epochs + 6 × %d KB of links + 6 × %d KB of cone lists + a %d KB segment allow %d KB",
			tc.name, got/1024, epochs/1024, links/1024, lists/1024, seg/1024, budget/1024)
		if got > budget {
			t.Errorf("Open, %s: allocates %d KB, want <= %d KB (epochs + 6 × links + 6 × cone lists + one segment)", tc.name, got/1024, budget/1024)
		}
	}
}

// TestReplayerSnapshotsOutliveTheReplay: the link column snapshot hands
// out is the replayer's working array, so the replayer must not make it
// the spare the next epochs are written into. Snapshots taken at every
// other epoch of a chain still equal their epochs after the whole chain
// is replayed, and so does the head's.
func TestReplayerSnapshotsOutliveTheReplay(t *testing.T) {
	series := synthSeries(300, 8, 7)
	rp := replayerAt(t, series[0])
	held := map[int]*Snapshot{0: rp.snapshot()}
	for i := 1; i < len(series); i++ {
		img, _ := encodeSegment(kindDelta, uint32(i), 0, deltaCols(series[i-1], series[i]))
		_, cols, _, err := parseSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.delta(cols); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if i%2 == 0 || i == len(series)-1 {
			held[i] = rp.snapshot()
		}
	}
	for i, s := range held {
		if !reflect.DeepEqual(s, series[i]) {
			t.Errorf("snapshot of epoch %d changed while the replayer went on", i)
		}
	}
}

// TestRebuildLinksIntoWarmPairAllocatesNothing pins what the hotpath
// mark on rebuildLinks promises: a delta's links rebuilt into the
// replayer's spare array, once it has room for them, allocate nothing.
func TestRebuildLinksIntoWarmPairAllocatesNothing(t *testing.T) {
	series := synthSeries(300, 3, 7)
	s1, s2 := series[1], cloneSnapshot(series[2])
	for i := 0; i < len(s2.Links); i += 40 { // some carried links relabelled too
		s2.Links[i].Rel = s2.Links[i].Rel%3 + 1
	}
	rp := replayerAt(t, series[0])
	cols := deltaCols(series[0], s1)
	img, _ := encodeSegment(kindDelta, 1, 0, cols)
	_, parsed, _, err := parseSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.delta(parsed); err != nil {
		t.Fatal(err)
	}
	m, d := mapIndexes(s1.ASNs, s2.ASNs), diffLinks(s1, s2)
	removed := make([]posPair, len(d.removed))
	for i, l := range d.removed {
		removed[i] = posPair{A: l.A, B: l.B}
	}
	if len(removed) == 0 || len(d.added) == 0 || len(d.changed) == 0 {
		t.Fatalf("delta removes %d, adds %d and relabels %d links; want some of each", len(removed), len(d.added), len(d.changed))
	}
	allocs := testing.AllocsPerRun(50, func() {
		rp.spareLinks, err = rebuildLinks(rp.cur, m, removed, d.added, d.changed, rp.spareLinks)
	})
	if err != nil || !slices.Equal(rp.spareLinks, s2.Links) {
		t.Fatalf("rebuilt links differ from the successor's (%v)", err)
	}
	if allocs != 0 {
		t.Errorf("rebuildLinks into a warm pair: %.1f allocations, want 0", allocs)
	}
}

// TestHandBuiltAppendsLikeComposed: a snapshot out of Compose and a copy
// of its columns built by hand, in arrays of its own, append to the same
// segment bytes and manifest hashes, and the two stores' histories hold
// the same columns — nothing but the columns reaches the store.
func TestHandBuiltAppendsLikeComposed(t *testing.T) {
	composed := inferEpochs(t, 3)
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var stores [2]*Store
	for i := range stores {
		st, err := Open(dirs[i], Options{CheckpointEvery: 2}) // full, delta, full
		if err != nil {
			t.Fatal(err)
		}
		for e, s := range composed {
			if i == 1 {
				s = withRows(&Snapshot{
					ASNs:          slices.Clone(s.ASNs),
					TransitDegree: slices.Clone(s.TransitDegree),
					Degree:        slices.Clone(s.Degree),
					ConePrefixes:  slices.Clone(s.ConePrefixes),
					Clique:        slices.Clone(s.Clique),
					PathCount:     s.PathCount,
					Links:         slices.Clone(s.Links),
				}, rowsOf(s))
			}
			if _, err := st.Append(s, fmt.Sprintf("epoch-%d", e), ""); err != nil {
				t.Fatal(err)
			}
		}
		stores[i] = st
	}
	a, b := stores[0].Epochs(), stores[1].Epochs()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("manifest entries differ:\n%+v\n%+v", a, b)
	}
	for _, info := range a {
		x, err1 := os.ReadFile(filepath.Join(dirs[0], info.File))
		y, err2 := os.ReadFile(filepath.Join(dirs[1], info.File))
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			t.Errorf("%s (%s) differs between the two stores (%v, %v)", info.File, info.Kind, err1, err2)
		}
	}
	if ha, hb := stores[0].History(), stores[1].History(); ha.ETag() != hb.ETag() || !reflect.DeepEqual(ha.series, hb.series) {
		t.Error("the two histories hold different columns")
	}
}

// TestAppendRanksWhatItIsNotHanded: a snapshot carries no rank and no
// size column, so Append ranks every epoch from the sizes its cone
// lists give, as Open ranks every epoch it replays. ConeSizes is
// counted on every call and hands its caller a column of its own: a
// series whose callers spoilt the sizes they read — emptied, reversed,
// cut short (the last entry), one size named twice — before appending
// answers History.ASN for every AS as the reopened store does.
func TestAppendRanksWhatItIsNotHanded(t *testing.T) {
	snaps := synthSeries(300, 5, 13)
	for name, spoil := range map[string]func([]int32){
		"nil":       func(r []int32) { clear(r) },
		"reversed":  func(r []int32) { slices.Reverse(r) },
		"truncated": func(r []int32) { r[len(r)-1] = -1 },
		"repeated":  func(r []int32) { r[1] = r[0] },
	} {
		t.Run(name, func(t *testing.T) {
			spoilt := make([]*Snapshot, len(snaps))
			for i, s := range snaps {
				c := *s
				spoil(c.ConeSizes())
				spoilt[i] = &c
			}
			appended, reopened := synthStore(t, spoilt, 3)
			for _, s := range snaps {
				for _, asn := range s.ASNs {
					got, want := appended.History().ASN(asn), reopened.History().ASN(asn)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("AS%d: appended store answers %+v, reopened %+v", asn, got, want)
					}
				}
			}
		})
	}
}

// TestConeSizesFollowTheSlab: the sizes answer for the cone lists the
// snapshot holds when it is asked and no other — each row's length — so
// a copy given lists of its own is counted from them, and a caller that
// writes to the sizes it was handed changes nothing the snapshot answers
// next.
func TestConeSizesFollowTheSlab(t *testing.T) {
	s := inferEpochs(t, 1)[0]
	want := make([]int32, len(s.ASNs))
	for p := range want {
		want[p] = int32(len(s.coneRow(p)))
	}
	got := s.ConeSizes()
	if !slices.Equal(got, want) {
		t.Error("a composed snapshot's sizes are not its rows' lengths")
	}
	clear(got)
	if !slices.Equal(s.ConeSizes(), want) {
		t.Error("a caller writing to the sizes it was handed changed the snapshot's answer")
	}
	rows := rowsOf(s)
	rows[0] = append(rows[0], int32(len(s.ASNs)-1))
	moved := withRows(s, rows)
	want[0]++
	if !slices.Equal(moved.ConeSizes(), want) {
		t.Error("a copy with other lists answers with the original's sizes")
	}
}

// TestSnapshotResultIsTheCallers: Snapshot(id) hands over a link column
// and cone lists of the caller's own, which nobody else holds. A result
// stays intact through a hundred further Snapshot and Append calls (run
// beside each other under -race), and a caller scribbling over its
// result changes nothing the store answers afterwards, nor another
// result of the same epoch.
func TestSnapshotResultIsTheCallers(t *testing.T) {
	snaps := synthSeries(300, 60, 5)
	_, st := synthStore(t, snaps[:10], 4)
	const id = 7 // three deltas past the checkpoint at 4
	held, err := st.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(held, snaps[id]) {
		t.Fatal("epoch 7 decodes differently from the snapshot appended")
	}

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				at := (r + 3*i) % 10
				got, err := st.Snapshot(uint32(at))
				if err != nil || !reflect.DeepEqual(got, snaps[at]) {
					t.Errorf("epoch %d beside appends: differs from the snapshot appended (%v)", at, err)
					return
				}
			}
		}(r)
	}
	for e := 10; e < 60; e++ {
		if _, err := st.Append(snaps[e], "epoch", ""); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if !reflect.DeepEqual(held, snaps[id]) {
		t.Error("a held result changed while the store went on")
	}

	twin, err := st.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range held.ConeMembers {
		held.ConeMembers[i] = -1
	}
	clear(held.ConeStart)
	for i := range held.Links {
		held.Links[i] = LinkRec{A: -1, B: -1}
	}
	if !reflect.DeepEqual(twin, snaps[id]) {
		t.Error("a caller's write to its result reached another result of the same epoch")
	}
	for _, at := range []uint32{id, id - 1, id + 1, 58, 59} {
		got, err := st.Snapshot(at)
		if err != nil || !reflect.DeepEqual(got, snaps[at]) {
			t.Errorf("epoch %d after a caller wrote to its result: differs from the snapshot appended (%v)", at, err)
		}
	}
}

func benchChain(b *testing.B) *Store {
	_, st := synthStore(b, synthSeries(2000, 17, 11), 16)
	b.ReportAllocs()
	b.ResetTimer()
	return st
}

// BenchmarkSnapshotChain materializes the deepest epoch of a 15-delta
// chain at ~2k ASes.
func BenchmarkSnapshotChain(b *testing.B) {
	st := benchChain(b)
	for i := 0; i < b.N; i++ {
		if _, err := st.Snapshot(15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendChain writes that series to a fresh store: two
// checkpoints and 15 deltas.
func BenchmarkAppendChain(b *testing.B) {
	snaps := synthSeries(2000, 17, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range snaps {
			if _, err := st.Append(s, "epoch", ""); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHistoryDiff folds that store's change lists over every range
// that ends at its last epoch, one to sixteen epochs long.
func BenchmarkHistoryDiff(b *testing.B) {
	h := benchChain(b).History()
	last := uint32(h.Len() - 1)
	for i := 0; i < b.N; i++ {
		for from := uint32(0); from < last; from++ {
			if _, err := h.Diff(from, last); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOpenChain cold-opens that store: one full epoch, 15 deltas,
// one more checkpoint.
func BenchmarkOpenChain(b *testing.B) {
	dir := benchChain(b).Dir()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dir, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// cloneSnapshot copies every column of s into arrays of its own.
func cloneSnapshot(s *Snapshot) *Snapshot {
	return &Snapshot{
		ASNs:          slices.Clone(s.ASNs),
		TransitDegree: slices.Clone(s.TransitDegree),
		Degree:        slices.Clone(s.Degree),
		ConePrefixes:  slices.Clone(s.ConePrefixes),
		Clique:        slices.Clone(s.Clique),
		PathCount:     s.PathCount,
		Links:         slices.Clone(s.Links),
		ConeStart:     slices.Clone(s.ConeStart),
		ConeMembers:   slices.Clone(s.ConeMembers),
	}
}

// dirImage reads every file of a store directory, by name.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestAppendRefusesMalformedSnapshots: a snapshot the store could not
// read back as it was handed over — a column of the wrong length, cone
// lists that are not n+1 offsets over strictly ascending rows of
// positions below n, a column out of order, a negative count, a link
// out of order, out of range or unlabelled — is refused before anything
// is written, as a full epoch and as a delta. Append returns an error,
// Len and every file of the directory stay as they were, the next Open
// reopens the same epochs, and the store appends the well-formed
// snapshot after it. (A cone column one entry short used to be written,
// and then dropped by the next Open with every epoch after it.)
func TestAppendRefusesMalformedSnapshots(t *testing.T) {
	snaps := synthSeries(300, 2, 21)
	good := snaps[1]
	n := len(good.ASNs)
	wide := -1 // a position whose cone has two members or more
	for p := 0; p < n; p++ {
		if good.ConeStart[p+1]-good.ConeStart[p] >= 2 {
			wide = p
			break
		}
	}
	if wide < 0 {
		t.Fatal("no cone of two members to spoil")
	}
	row := func(s *Snapshot) []int32 { return s.ConeMembers[s.ConeStart[wide]:s.ConeStart[wide+1]] }
	malformed := map[string]func(s *Snapshot){
		"cone offsets one short":       func(s *Snapshot) { s.ConeStart = s.ConeStart[:n] },
		"cone offsets one long":        func(s *Snapshot) { s.ConeStart = append(s.ConeStart, s.ConeStart[n]) },
		"cone offsets not from zero":   func(s *Snapshot) { s.ConeStart[0] = 1 },
		"cone offsets decrease":        func(s *Snapshot) { s.ConeStart[wide+1] = s.ConeStart[wide] - 1 },
		"cone members one short":       func(s *Snapshot) { s.ConeMembers = s.ConeMembers[:len(s.ConeMembers)-1] },
		"cone members one long":        func(s *Snapshot) { s.ConeMembers = append(s.ConeMembers, 0) },
		"cone member repeated":         func(s *Snapshot) { row(s)[1] = row(s)[0] },
		"cone row descending":          func(s *Snapshot) { slices.Reverse(row(s)) },
		"cone member past the last AS": func(s *Snapshot) { row(s)[len(row(s))-1] = int32(n) },
		"negative cone member":         func(s *Snapshot) { row(s)[0] = -1 },
		"transit degree one short":     func(s *Snapshot) { s.TransitDegree = s.TransitDegree[:n-1] },
		"degree one long":              func(s *Snapshot) { s.Degree = append(s.Degree, 0) },
		"cone prefixes one short":      func(s *Snapshot) { s.ConePrefixes = s.ConePrefixes[:n-1] },
		"negative degree":              func(s *Snapshot) { s.Degree[3] = -1 },
		"negative cone prefixes":       func(s *Snapshot) { s.ConePrefixes[3] = -1 },
		"negative path count":          func(s *Snapshot) { s.PathCount = -1 },
		"ASNs not ascending":           func(s *Snapshot) { s.ASNs[1], s.ASNs[2] = s.ASNs[2], s.ASNs[1] },
		"clique repeated":              func(s *Snapshot) { s.Clique[1] = s.Clique[0] },
		"links out of order":           func(s *Snapshot) { s.Links[0], s.Links[1] = s.Links[1], s.Links[0] },
		"link past the last AS":        func(s *Snapshot) { s.Links[len(s.Links)-1].B = int32(n) },
		"link ends reversed":           func(s *Snapshot) { l := &s.Links[0]; l.A, l.B = l.B, l.A },
		"link with no relationship":    func(s *Snapshot) { s.Links[0].Rel = topology.None },
		"link with an unknown step":    func(s *Snapshot) { s.Links[0].Step = core.StepPeer + 1 },
	}
	for name, spoil := range malformed {
		for _, kind := range []string{"full", "delta"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				dir := t.TempDir()
				st, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if kind == "delta" {
					if _, err := st.Append(snaps[0], "base", ""); err != nil {
						t.Fatal(err)
					}
				}
				held, files := st.Len(), dirImage(t, dir)
				bad := cloneSnapshot(good)
				spoil(bad)
				if _, err := st.Append(bad, "bad", ""); err == nil {
					t.Fatal("appended")
				}
				if st.Len() != held || !reflect.DeepEqual(dirImage(t, dir), files) {
					t.Fatalf("the refused append left %d epochs (had %d) or changed the directory", st.Len(), held)
				}
				re, err := Open(dir, Options{})
				if err != nil || re.Len() != held {
					t.Fatalf("reopened %d epochs (%v), want %d", re.Len(), err, held)
				}
				if _, err := st.Append(good, "good", ""); err != nil {
					t.Fatal(err)
				}
				if re, err = Open(dir, Options{}); err != nil || re.Len() != held+1 {
					t.Fatalf("after the good append: reopened %d epochs (%v), want %d", re.Len(), err, held+1)
				}
			})
		}
	}
}
