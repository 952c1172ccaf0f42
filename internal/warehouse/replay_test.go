package warehouse

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/cone"
)

// synthSeries fabricates a chain of valid snapshots around n ASes
// without running inference, so chain-depth tests and benchmarks set up
// in milliseconds. Every epoch retires and admits a few ASes, redraws a
// few metrics, drops, adds and relabels links, toggles a few hundred
// cone members and rotates the provenance table — the drift the delta
// columns exist for, with every replay path (remap, in-place XOR, step
// translation) taken. Epochs listed in still keep their AS set.
func synthSeries(n, epochs int, seed int64, still ...int) []*Snapshot {
	type as struct {
		td, deg int32
		pref    int64
		cone    map[uint32]bool
	}
	type link struct {
		rel  RelCode
		step string
	}
	rng := rand.New(rand.NewSource(seed))
	names := []string{"clique", "top-down", "fold", "vp"}
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
			links[[2]uint32{peer, next}] = link{RelCode(1 + rng.Intn(3)), names[rng.Intn(len(names))]}
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
					gone := asns[30+rng.Intn(len(asns)-30)]
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
					links[k] = link{RelCode(1 + rng.Intn(3)), names[rng.Intn(len(names))]}
				}
				if top := ases[asns[rng.Intn(30)]]; top.cone[b] && top != ases[b] {
					delete(top.cone, b)
				} else {
					top.cone[b] = true
				}
			}
		}

		s := &Snapshot{ASNs: asns, Clique: slices.Clone(asns[:5]), PathCount: int64(1000 + e), NumRels: int64(len(links))}
		for i := range names { // rotate, so provenance indexes move between epochs
			s.StepNames = append(s.StepNames, names[(i+e)%len(names)])
		}
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
			s.Links = append(s.Links, LinkRec{A: a, B: b, Rel: l.rel, Step: uint8(slices.Index(s.StepNames, l.step))})
		}
		slices.SortFunc(s.Links, func(x, y LinkRec) int { return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B)) })
		s.RankPos = cone.RankPositions(cone.RowSizes(make([]int32, len(asns)), s.ConeWords), s.TransitDegree)
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
// decodes back deep-equal at two checkpoint cadences.
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
			if !reflect.DeepEqual(got, want) {
				t.Errorf("checkpointEvery=%d epoch %d: decoded snapshot differs from the appended one", every, i)
			}
		}
	}
}

// TestSnapshotChainAllocBound is the machine-independent guard on the
// replayer: materializing the deepest epoch of a 15-delta chain may
// allocate at most 3x what decoding the same epoch stored full does.
// With a slab pair per delta it was ~30x.
func TestSnapshotChainAllocBound(t *testing.T) {
	snaps := synthSeries(2000, 17, 11)
	_, chained := synthStore(t, snaps, 16)
	_, flat := synthStore(t, snaps, 1)
	measure := func(st *Store) float64 {
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
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	deep, full := measure(chained), measure(flat)
	t.Logf("Snapshot(15): %.0f KB at chain depth 15, %.0f KB stored full (%.1fx)", deep/1024, full/1024, deep/full)
	if deep > 3*full {
		t.Errorf("a depth-15 replay allocates %.1fx a full decode, want <= 3x", deep/full)
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
