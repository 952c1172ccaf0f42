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

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/topology"
)

// synthSeries fabricates a chain of valid snapshots around n ASes
// without running inference, so chain-depth tests and benchmarks set up
// in milliseconds. Every epoch retires and admits a few ASes, redraws a
// few metrics, drops, adds and relabels links and toggles a few hundred
// cone members — the drift the delta columns exist for, with every
// replay path (remap, in-place XOR) taken. Epochs listed in still keep
// their AS set.
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

		s := &Snapshot{ASNs: asns, Clique: slices.Clone(asns[:5]), PathCount: int64(1000 + e)}
		wps := s.WordsPerCone()
		s.ConeWords = make([]uint64, wps*len(asns))
		for p, asn := range asns {
			a := ases[asn]
			s.TransitDegree = append(s.TransitDegree, a.td)
			s.Degree = append(s.Degree, a.deg)
			s.ConePrefixes = append(s.ConePrefixes, a.pref)
			for member := range a.cone {
				q, _ := posOf(asns, member)
				s.ConeWords[p*wps+int(q)>>6] |= 1 << (uint(q) & 63)
			}
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
// decodes back deep-equal at two checkpoint cadences — to the appended
// snapshot plus the size column the replayer kept beside it, which must
// be what an independent count of the slab gives.
func TestSynthSeriesRoundTrip(t *testing.T) {
	snaps := synthSeries(300, 9, 7, 3, 4)
	churned, kept := 0, 0
	for i := 1; i < len(snaps); i++ {
		if m := mapIndexes(snaps[i-1].ASNs, snaps[i].ASNs); m.identity() {
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
			if !reflect.DeepEqual(got, sized(want)) {
				t.Errorf("checkpointEvery=%d epoch %d: decoded snapshot differs from the appended one", every, i)
			}
		}
	}
}

// TestSnapshotChainAllocBound is the machine-independent guard on the
// replayer, counted in slabs: Snapshot(id) may allocate the columns of
// the epochs it replays (their segment images and decoded columns) plus
// one cone slab for an epoch stored full or reached through deltas that
// keep the AS set — the one it hands over — and two when deltas of the
// chain move the AS set anywhere, the second being the rows they set
// aside. Where they move it only at the tail, the set-aside rows of the
// largest move are allowed instead of the second slab. A quarter slab of
// slack is anything short of one more. (With a copy handed out the first
// three cases allocated 1 218, 3 302 and 2 630 KB; with a slab pair per
// delta the second was ~30x the first.)
func TestSnapshotChainAllocBound(t *testing.T) {
	var still []int
	for e := 1; e < 17; e++ {
		still = append(still, e)
	}
	churned, kept := synthSeries(2000, 17, 11), synthSeries(2000, 17, 11, still...)
	for _, tc := range []struct {
		name            string
		snaps           []*Snapshot
		every, maxSlabs int
		movedRows       bool
	}{
		{"stored full", churned, 1, 1, false},
		{"depth 15", churned, 16, 2, false},
		{"depth 15, AS set kept", kept, 16, 1, false},
		{"depth 15, AS set moved at the tail", tailSeries(2000, 17, 11), 16, 1, true},
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

		slab, columns, moved := 8*len(tc.snaps[15].ConeWords), 0, 0
		for id := 15 - 15%tc.every; id <= 15; id++ {
			s := tc.snaps[id]
			columns += int(st.Epochs()[id].Bytes) + 28*len(s.ASNs) + 12*len(s.Links)
			if tc.movedRows && id%tc.every > 0 {
				old := tc.snaps[id-1]
				rows := len(old.ASNs) - mapIndexes(old.ASNs, s.ASNs).firstMoved()
				moved = max(moved, rows*(8*old.WordsPerCone()+4))
			}
		}
		budget := tc.maxSlabs*slab + columns + moved + slab/4
		t.Logf("Snapshot(15), %s: %d KB; %d slab(s) of %d KB + %d KB of columns + %d KB of moved rows allow %d KB",
			tc.name, got/1024, tc.maxSlabs, slab/1024, columns/1024, moved/1024, budget/1024)
		if got > budget {
			t.Errorf("Snapshot(15), %s: allocates %d KB, want <= %d KB (%d slab(s) + columns + moved rows)", tc.name, got/1024, budget/1024, tc.maxSlabs)
		}
	}
}

// TestHandBuiltAppendsLikeComposed: the size column is a by-product, not
// an input. A snapshot out of Compose and the same snapshot without the
// column (as hand-built ones are) append to the same segment bytes and
// manifest hashes, and the two stores' histories hold the same columns.
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
			if s.sizedSlab == nil || !slices.Equal(s.coneSizes, sized(s).coneSizes) {
				t.Fatal("Compose left the size column empty or wrong")
			}
			if i == 1 {
				bare := *s
				bare.coneSizes, bare.sizedSlab = nil, nil
				s = &bare
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

// TestAppendRanksWhatItIsNotHanded: a snapshot carries no rank, so
// Append ranks every epoch from the sizes its slab gives, as Open ranks
// every epoch it replays. The one derived column a snapshot may carry,
// its cone sizes, answers only for the slab it was counted from: a
// series of copies given slabs of their own, each still holding a
// column that is empty, reversed, cut short or names one size twice,
// answers History.ASN for every AS as the reopened store does.
func TestAppendRanksWhatItIsNotHanded(t *testing.T) {
	snaps := synthSeries(300, 5, 13)
	for name, spoil := range map[string]func([]int32) []int32{
		"nil":       func([]int32) []int32 { return nil },
		"reversed":  func(r []int32) []int32 { r = slices.Clone(r); slices.Reverse(r); return r },
		"truncated": func(r []int32) []int32 { return r[:len(r)-1] },
		"repeated":  func(r []int32) []int32 { r = slices.Clone(r); r[1] = r[0]; return r },
	} {
		t.Run(name, func(t *testing.T) {
			spoilt := make([]*Snapshot, len(snaps))
			for i, s := range snaps {
				c := *sized(s)
				c.coneSizes = spoil(c.coneSizes)
				c.ConeWords = slices.Clone(s.ConeWords)
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

// TestConeSizesFollowTheSlab: the size column answers for the slab it
// was counted from and no other — a copy of a snapshot given a slab of
// its own is counted afresh, not trusted.
func TestConeSizesFollowTheSlab(t *testing.T) {
	s := inferEpochs(t, 1)[0]
	if &s.ConeSizes()[0] != &s.coneSizes[0] {
		t.Error("a composed snapshot recounts the slab its column was counted from")
	}
	moved := *s
	moved.ConeWords = slices.Clone(s.ConeWords)
	moved.ConeWords[0] ^= 2
	want := cone.RowSizes(make([]int32, len(s.ASNs)), moved.ConeWords)
	if got := moved.ConeSizes(); !slices.Equal(got, want) || slices.Equal(got, s.coneSizes) {
		t.Error("a copy with another slab answers with the original's sizes")
	}
}

// TestSnapshotResultIsTheCallers: Snapshot(id) hands over the slab its
// replayer worked in, so nobody else may hold it. A result stays intact
// through a hundred further Snapshot and Append calls (run beside each
// other under -race), and a caller scribbling over its result changes
// nothing the store answers afterwards.
func TestSnapshotResultIsTheCallers(t *testing.T) {
	snaps := synthSeries(300, 60, 5)
	_, st := synthStore(t, snaps[:10], 4)
	const id = 7 // three deltas past the checkpoint at 4
	held, err := st.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(held, sized(snaps[id])) {
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
				if err != nil || !reflect.DeepEqual(got, sized(snaps[at])) {
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
	if !reflect.DeepEqual(held, sized(snaps[id])) {
		t.Error("a held result changed while the store went on")
	}

	for i := range held.ConeWords {
		held.ConeWords[i] = ^uint64(0)
	}
	clear(held.coneSizes)
	for _, at := range []uint32{id, id - 1, id + 1, 58} {
		got, err := st.Snapshot(at)
		if err != nil || !reflect.DeepEqual(got, sized(snaps[at])) {
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
