package warehouse

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// wholeChainETag is the chain ETag by its definition, hashed from the
// start of the chain: FNV-1a over every epoch's "id:hash;", in order.
func wholeChainETag(epochs []EpochInfo) string {
	h := fnv.New64a()
	for _, e := range epochs {
		fmt.Fprintf(h, "%d:%s;", e.ID, e.Hash)
	}
	return fmt.Sprintf("\"wh-%016x\"", h.Sum64())
}

// TestRunningChainETagEqualsWholeChainHash: over random synthetic chains
// at random checkpoint cadences, the chain ETag after every append, and
// after a reopen, is the whole-chain hash of the epochs the store lists;
// over random manifest entries, ids and hash strings of any length, so
// is the History extend builds.
func TestRunningChainETagEqualsWholeChainHash(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for chain := range 4 {
		snaps := synthSeries(50+rng.Intn(250), 2+rng.Intn(10), rng.Int63())
		dir := t.TempDir()
		st, err := Open(dir, Options{CheckpointEvery: 1 + rng.Intn(5)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.History().ETag(), wholeChainETag(nil); got != want {
			t.Fatalf("chain %d: empty store's ETag %s, whole-chain hash %s", chain, got, want)
		}
		for i, s := range snaps {
			if _, err := st.Append(s, fmt.Sprint(i), ""); err != nil {
				t.Fatal(err)
			}
			if got, want := st.History().ETag(), wholeChainETag(st.Epochs()); got != want {
				t.Fatalf("chain %d, epoch %d: running ETag %s, whole-chain hash %s", chain, i, got, want)
			}
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := re.History().ETag(), wholeChainETag(re.Epochs()); got != want || got != st.History().ETag() {
			t.Fatalf("chain %d reopened: running ETag %s, whole-chain hash %s, appended %s", chain, got, want, st.History().ETag())
		}
	}

	one := oneASSnapshot()
	h := newHistory()
	var ranks rankScratch
	for i := range 200 {
		hash := make([]byte, rng.Intn(100))
		for j := range hash {
			hash[j] = byte(rng.Intn(256))
		}
		h = h.extend(EpochInfo{ID: rng.Uint32(), Hash: string(hash)}, one, one, nil, &ranks)
		if got, want := h.ETag(), wholeChainETag(h.Epochs()); got != want {
			t.Fatalf("entry %d (hash of %d bytes): running ETag %s, whole-chain hash %s", i, len(hash), got, want)
		}
	}
}

// TestPublishedHistoryNeverChanges (go test -race): a History taken
// after k appends answers every query as it did when taken while m more
// epochs are appended beside its readers, although the store grows the
// same arrays in place; and a caller appending to its Epochs, before or
// after the store's epoch k, neither writes that epoch nor sees it.
func TestPublishedHistoryNeverChanges(t *testing.T) {
	const k, m = 6, 10
	snaps := synthSeries(200, k+m, 3)
	st, err := Open(t.TempDir(), Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps[:k] {
		if _, err := st.Append(s, fmt.Sprint(i), ""); err != nil {
			t.Fatal(err)
		}
	}
	h0 := st.History()
	epochs := slices.Clone(h0.Epochs())
	etag := h0.ETag()
	// ASes present throughout, retired, admitted late, and never seen.
	asns := []uint32{snaps[0].ASNs[0], snaps[0].ASNs[len(snaps[0].ASNs)-1], snaps[k-1].ASNs[len(snaps[k-1].ASNs)-1], 1}
	for _, s := range snaps[k:] {
		asns = append(asns, s.ASNs[len(s.ASNs)-1])
	}
	trajectories := make([][]ASNEpoch, len(asns))
	for i, asn := range asns {
		trajectories[i] = h0.ASN(asn)
	}
	diffs := map[[2]uint32][]RelChange{}
	for from := uint32(0); from < k; from++ {
		for to := from + 1; to < k; to++ {
			if diffs[[2]uint32{from, to}], err = h0.Diff(from, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	caller := EpochInfo{ID: k, Label: "written by a caller"}
	before := append(h0.Epochs(), caller)

	check := func() {
		if !reflect.DeepEqual(h0.Epochs(), epochs) || h0.Len() != k || h0.ETag() != etag {
			t.Errorf("published History's epochs or ETag changed: %d epochs, ETag %s (was %s)", h0.Len(), h0.ETag(), etag)
		}
		for i, asn := range asns {
			if got := h0.ASN(asn); !reflect.DeepEqual(got, trajectories[i]) {
				t.Errorf("AS%d: published History's trajectory changed", asn)
			}
		}
		for r, want := range diffs {
			if got, err := h0.Diff(r[0], r[1]); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("diff %d..%d: published History's answer changed (%v)", r[0], r[1], err)
			}
		}
		if _, err := h0.Diff(0, k); err == nil {
			t.Errorf("published History of %d epochs answers a diff to epoch %d", k, k)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					check()
				}
			}
		}()
	}
	for i, s := range snaps[k:] {
		if _, err := st.Append(s, fmt.Sprint(k+i), ""); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The store has written its epoch k, and its array may still
			// be the one h0's epochs sit in.
			if !reflect.DeepEqual(before[k], caller) {
				t.Errorf("a caller's entry appended before epoch %d reads %+v after it", k, before[k])
			}
			if after := append(h0.Epochs(), caller); !reflect.DeepEqual(after[k], caller) {
				t.Errorf("a caller's entry appended after epoch %d reads %+v", k, after[k])
			}
		}
	}
	close(done)
	wg.Wait()
	check()

	got := st.Epochs()
	if len(got) != k+m || got[k].ID != k || got[k].Label != fmt.Sprint(k) || got[k].Hash == "" {
		t.Fatalf("store's epoch %d is %+v after a caller appended to a published History's epochs", k, got[k])
	}
}

// oneASSnapshot is the smallest snapshot a History can index: one AS
// in its own cone, no links.
func oneASSnapshot() *Snapshot {
	return &Snapshot{
		ASNs:          []uint32{64500},
		ConeStart:     []int32{0, 1},
		ConeMembers:   []int32{0},
		ConePrefixes:  []int64{1},
		Degree:        []int32{0},
		TransitDegree: []int32{0},
	}
}

// TestHistoryGrowthIsLinear guards extend against copying or re-hashing
// the epochs before it: growing a History of one-AS epochs to 4 000
// epochs must allocate under 8x what growing it to 1 000 does. Linear
// growth gives about 4x; copying every earlier epoch on each extend gave
// about 16x.
func TestHistoryGrowthIsLinear(t *testing.T) {
	one := oneASSnapshot()
	grow := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h := newHistory()
		var ranks rankScratch
		for i := range n {
			h = h.extend(EpochInfo{ID: uint32(i), Label: "epoch", Kind: "delta", Hash: "0123456789abcdef"}, one, one, nil, &ranks)
		}
		runtime.ReadMemStats(&after)
		if h.Len() != n {
			t.Fatalf("grew %d epochs, want %d", h.Len(), n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := grow(1000), grow(4000)
	t.Logf("1 000 epochs: %d B; 4 000 epochs: %d B (%.1fx)", small, large, float64(large)/float64(small))
	if large >= 8*small {
		t.Errorf("growing a History to 4 000 epochs allocated %d B, %.1fx the %d B of 1 000: growth is not linear", large, float64(large)/float64(small), small)
	}
}

// withoutASes returns a copy of s without the ASes drop names: their
// links and cone memberships go with them, every other position moves
// down, and the ASes in zero keep their place with all three counts
// zero.
func withoutASes(s *Snapshot, drop, zero map[uint32]bool) *Snapshot {
	out := &Snapshot{Clique: s.Clique, PathCount: s.PathCount, ConeStart: []int32{0}}
	pos := make([]int32, len(s.ASNs))
	for p, asn := range s.ASNs {
		pos[p] = -1
		if drop[asn] {
			continue
		}
		pos[p] = int32(len(out.ASNs))
		out.ASNs = append(out.ASNs, asn)
		if zero[asn] {
			out.TransitDegree, out.Degree, out.ConePrefixes = append(out.TransitDegree, 0), append(out.Degree, 0), append(out.ConePrefixes, 0)
			continue
		}
		out.TransitDegree = append(out.TransitDegree, s.TransitDegree[p])
		out.Degree = append(out.Degree, s.Degree[p])
		out.ConePrefixes = append(out.ConePrefixes, s.ConePrefixes[p])
	}
	for p := range s.ASNs {
		if pos[p] < 0 {
			continue
		}
		for _, m := range s.coneRow(p) {
			if q := pos[m]; q >= 0 {
				out.ConeMembers = append(out.ConeMembers, q)
			}
		}
		out.ConeStart = append(out.ConeStart, int32(len(out.ConeMembers)))
	}
	for _, l := range s.Links {
		if a, b := pos[l.A], pos[l.B]; a >= 0 && b >= 0 {
			out.Links = append(out.Links, LinkRec{A: a, B: b, Rel: l.Rel, Step: l.Step})
		}
	}
	return out
}

// comingAndGoing is synthSeries whose ASes also leave and come back: a
// pool of a tenth of the first epoch's ASes (none of the 30 that hold
// the clique and the large cones) is drawn from afresh every epoch, each
// member absent with odds 1 in 3 and, when present, with its three
// counts zero with odds 1 in 4. Every third epoch keeps the AS set its
// predecessor had.
func comingAndGoing(n, epochs int, seed int64) []*Snapshot {
	rng := rand.New(rand.NewSource(seed))
	var still []int
	for e := 3; e < epochs; e += 3 {
		still = append(still, e)
	}
	snaps := synthSeries(n, epochs, seed, still...)
	var pool []uint32
	for _, asn := range snaps[0].ASNs[30:] {
		if rng.Intn(10) == 0 {
			pool = append(pool, asn)
		}
	}
	var drop map[uint32]bool
	for e, s := range snaps {
		if !slices.Contains(still, e) {
			drop = map[uint32]bool{}
			for _, asn := range pool {
				if rng.Intn(3) == 0 {
					drop[asn] = true
				}
			}
		}
		zero := map[uint32]bool{}
		for _, asn := range pool {
			if rng.Intn(4) == 0 {
				zero[asn] = true
			}
		}
		snaps[e] = withoutASes(s, drop, zero)
	}
	return snaps
}

// TestHistoryEqualsDenseOracle: over random synthetic chains whose ASes
// leave and return and whose counts drop to zero, a History built by
// Append and one built by a reopened Open hold the same series and both
// answer ASN like the dense oracle fed the same snapshots, for every AS any epoch holds and one
// never seen. The trajectory has an entry per epoch, so every epoch is
// compared.
func TestHistoryEqualsDenseOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		snaps := comingAndGoing(300, 30, seed)
		appended, reopened := synthStore(t, snaps, 4+int(seed))
		if !reflect.DeepEqual(appended.History().series, reopened.History().series) {
			t.Fatalf("seed %d: the appended and the reopened History hold different series", seed)
		}
		oracle := new(oracleHistory)
		for e, s := range snaps {
			var prev *Snapshot
			if e > 0 {
				prev = snaps[e-1]
			}
			oracle.extend(appended.Epochs()[e], s, relChanges(prev, s, diffLinks(prev, s)))
		}
		asns := []uint32{1} // below every ASN synthSeries gives
		for _, s := range snaps {
			asns = append(asns, s.ASNs...)
		}
		slices.Sort(asns)
		asns = slices.Compact(asns)
		returned := 0
		for _, asn := range asns {
			want := oracle.ASN(asn)
			for name, st := range map[string]*Store{"appended": appended, "reopened": reopened} {
				if got := st.History().ASN(asn); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, AS%d: the %s History answers %+v, the dense oracle %+v", seed, asn, name, got, want)
				}
			}
			for e := 2; e < len(want); e++ {
				if want[e].Present && !want[e-1].Present && want[e-2].Present {
					returned++
					break
				}
			}
		}
		if returned < 10 {
			t.Fatalf("seed %d: %d ASes leave and return, want at least 10", seed, returned)
		}
	}
}

// TestHistoryHoldsWhatChanged pins what a History holds per epoch,
// counted as slice capacities: its rank column (4 bytes an AS), 32 bytes
// an AS whose metrics moved against the predecessor (a 24-byte entry
// and room), an AS column of 4 bytes an AS only when the set moved, the
// relationship-change list, and 256 bytes of slack. Which ASes moved is
// counted from the snapshots by ASN, not by the History. Five dense
// per-AS columns beside the AS column, 28 bytes an AS, do not fit it,
// and the test refuses a chain on which they would.
func TestHistoryHoldsWhatChanged(t *testing.T) {
	const n, epochs = 2000, 40
	snaps := synthSeries(n, epochs, 5, 10, 20, 30)
	appended, reopened := synthStore(t, snaps, 16)
	change := int(unsafe.Sizeof(RelChange{}))
	for name, st := range map[string]*Store{"appended": appended, "reopened": reopened} {
		h := st.History()
		total, budgets := 0, 0
		for e, s := range h.series {
			snap := snaps[e]
			was := map[uint32]asMetrics{}
			if e > 0 {
				for p, asn := range snaps[e-1].ASNs {
					was[asn] = metricsAt(snaps[e-1], p)
				}
			}
			moved := 0
			for p, asn := range snap.ASNs {
				w, ok := was[asn]
				if !ok {
					w = asMetrics{asn: asn} // an AS the predecessor lacks counts as all zero
				}
				if metricsAt(snap, p) != w {
					moved++
				}
			}
			held := 4*cap(s.rankOf) + int(unsafe.Sizeof(asMetrics{}))*cap(s.moved) + change*cap(s.changes)
			budget := 4*len(snap.ASNs) + 32*moved + change*len(s.changes) + 256
			if e == 0 || !slices.Equal(snap.ASNs, snaps[e-1].ASNs) {
				budget += 4 * len(snap.ASNs)
			}
			if e == 0 || &s.asns[0] != &h.series[e-1].asns[0] {
				held += 4 * cap(s.asns)
			}
			if dense := 28*len(snap.ASNs) + change*len(s.changes); e > 0 && dense <= budget {
				t.Fatalf("%s epoch %d: the budget %d B would hold five dense columns (%d B)", name, e, budget, dense)
			}
			if held > budget {
				t.Errorf("%s epoch %d: History holds %d B, want <= %d B (%d ASes, %d moved, %d relationship changes)",
					name, e, held, budget, len(snap.ASNs), moved, len(s.changes))
			}
			total += held
			budgets += budget
		}
		t.Logf("%s: %d epochs of ≈ %d ASes hold %.1f B an AS an epoch (budget %.1f B; dense columns 28 B)",
			name, epochs, n, float64(total)/float64(epochs*n), float64(budgets)/float64(epochs*n))
	}
}
