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
	for i := range 200 {
		hash := make([]byte, rng.Intn(100))
		for j := range hash {
			hash[j] = byte(rng.Intn(256))
		}
		h = h.extend(EpochInfo{ID: rng.Uint32(), Hash: string(hash)}, one, []int32{1}, nil)
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
		for i := range n {
			h = h.extend(EpochInfo{ID: uint32(i), Label: "epoch", Kind: "delta", Hash: "0123456789abcdef"}, one, []int32{1}, nil)
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
