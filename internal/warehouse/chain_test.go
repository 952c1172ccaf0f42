package warehouse_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// churnedSeries infers a series and shuffles its epochs, so consecutive
// epochs lose ASes as well as gain them (the simulated topology itself
// only grows).
func churnedSeries(t testing.TB, order []int, scale int) ([]*warehouse.Snapshot, []string) {
	t.Helper()
	grown, tags := buildSeries(t, len(order), scale, 6)
	snaps, etags := make([]*warehouse.Snapshot, len(order)), make([]string, len(order))
	for i, from := range order {
		snaps[i], etags[i] = grown[from], tags[from]
	}
	return snaps, etags
}

// toggled returns s's cone columns, copied, with member m of position
// p's cone flipped: taken out if it is in, put in its place if not.
func toggled(s *warehouse.Snapshot, p, m int32) (start, members []int32) {
	row := slices.Clone(s.ConeMembers[s.ConeStart[p]:s.ConeStart[p+1]])
	if i, in := slices.BinarySearch(row, m); in {
		row = slices.Delete(row, i, i+1)
	} else {
		row = slices.Insert(row, i, m)
	}
	members = slices.Concat(s.ConeMembers[:s.ConeStart[p]], row, s.ConeMembers[s.ConeStart[p+1]:])
	start = slices.Clone(s.ConeStart)
	for q := p + 1; int(q) < len(start); q++ {
		start[q] += int32(len(row)) - (s.ConeStart[p+1] - s.ConeStart[p])
	}
	return start, members
}

// manifestFile is MANIFEST.json as the tests that craft one read and
// write it.
type manifestFile struct {
	Version         int                   `json:"version"`
	CheckpointEvery int                   `json:"checkpointEvery"`
	Epochs          []warehouse.EpochInfo `json:"epochs"`
}

func readManifestFile(t testing.TB, dir string) (man manifestFile) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

func (man manifestFile) bytes(t testing.TB) []byte {
	t.Helper()
	raw, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// appendManifestEntry lists one more epoch in a store's manifest.
func appendManifestEntry(t *testing.T, dir string, info warehouse.EpochInfo) {
	t.Helper()
	man := readManifestFile(t, dir)
	man.Epochs = append(man.Epochs, info)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), man.bytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailedDeltaLeavesPredecessor: a tail delta that is sealed and
// decodes column by column, but fails late in the replay, must leave
// the working epoch exactly at its predecessor — Open serves that
// predecessor, byte for byte, and the store appends on from there. The
// predecessor is reached through a run of deltas (every 16) and through
// a checkpoint plus one delta (every 3); the failing epoch either moves
// the AS set or keeps it.
func TestFailedDeltaLeavesPredecessor(t *testing.T) {
	snaps, etags := churnedSeries(t, []int{0, 2, 1, 4, 3, 5}, 300)
	good, tail := len(snaps)-1, uint32(len(snaps)-1)
	prev := snaps[good-1]

	// A successor that keeps prev's AS set: a metric, a label and a cone
	// member moved.
	still := *prev
	still.Degree = slices.Clone(prev.Degree)
	still.Degree[0]++
	still.Links = slices.Clone(prev.Links)
	still.Links[0].Rel = still.Links[0].Rel%3 + 1
	still.ConeStart, still.ConeMembers = toggled(prev, 0, 1)

	for _, every := range []int{3, 16} {
		for name, next := range map[string]*warehouse.Snapshot{"churn": snaps[good], "still": &still} {
			for _, fault := range warehouse.TailFaults {
				t.Run(fmt.Sprintf("every%d/%s/%s", every, name, fault), func(t *testing.T) {
					dir := t.TempDir()
					fill(t, dir, snaps[:good], etags[:good], warehouse.Options{CheckpointEvery: every})
					img, hash := warehouse.SealedFaultyDelta(prev, next, tail, fault)
					file := fmt.Sprintf("epoch-%06d.seg", tail)
					if err := os.WriteFile(filepath.Join(dir, file), img, 0o644); err != nil {
						t.Fatal(err)
					}
					appendManifestEntry(t, dir, warehouse.EpochInfo{
						ID: tail, Label: "tail", Kind: "delta", Base: tail - 1, File: file,
						Bytes: int64(len(img)), Hash: hash, ASes: next.NumASes(), Links: len(next.Links),
					})

					re, err := warehouse.Open(dir, warehouse.Options{})
					if err != nil {
						t.Fatalf("recovery must not error: %v", err)
					}
					latest, info, ok := re.Latest()
					if !ok || re.Len() != good || info.ETag != etags[good-1] {
						t.Fatalf("reopened with %d epochs, latest etag %q; want %d and %q", re.Len(), info.ETag, good, etags[good-1])
					}
					if !reflect.DeepEqual(latest, prev) {
						t.Error("the failed delta left its mark on the predecessor")
					}
					if got := apiserver.BuildSnapshot(latest).ETag(); got != etags[good-1] {
						t.Errorf("predecessor rebuilds ETag %s, appended with %s", got, etags[good-1])
					}

					if _, err := re.Append(snaps[good], "redo", etags[good]); err != nil {
						t.Fatal(err)
					}
					again, err := warehouse.Open(dir, warehouse.Options{})
					if err != nil {
						t.Fatal(err)
					}
					redone, err := again.Snapshot(tail)
					if err != nil || again.Len() != len(snaps) {
						t.Fatalf("after the redo: %d epochs, %v", again.Len(), err)
					}
					if !reflect.DeepEqual(redone, snaps[good]) {
						t.Error("re-appended epoch decodes differently")
					}
				})
			}
		}
	}
}

// TestReopenedEqualsAppended: a store's History is built from the
// snapshots handed to Append, a reopened store's from the replayer's
// working epoch. Over a series whose ASes enter and leave, the two must
// answer every query alike, every decoded epoch must equal the appended
// one, and no two results may share a cone column.
func TestReopenedEqualsAppended(t *testing.T) {
	snaps, etags := churnedSeries(t, []int{0, 3, 1, 5, 2, 6, 4}, 300)
	dir := t.TempDir()
	st := fill(t, dir, snaps, etags, warehouse.Options{CheckpointEvery: 3})
	re, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appended, reopened := st.History(), re.History()
	if appended.ETag() != reopened.ETag() {
		t.Errorf("chain ETag %s reopened, %s appended", reopened.ETag(), appended.ETag())
	}

	seen := map[uint32]bool{}
	for _, s := range snaps {
		for _, asn := range s.ASNs {
			if !seen[asn] && !reflect.DeepEqual(reopened.ASN(asn), appended.ASN(asn)) {
				t.Errorf("AS%d: trajectory differs between the reopened and the appended store", asn)
			}
			seen[asn] = true
		}
	}
	for from := range snaps {
		for to := from + 1; to < len(snaps); to++ {
			want, err1 := appended.Diff(uint32(from), uint32(to))
			got, err2 := reopened.Diff(uint32(from), uint32(to))
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("diff %d..%d differs between the reopened and the appended store (%v, %v)", from, to, err1, err2)
			}
		}
	}

	latest, _, _ := re.Latest()
	for id, want := range snaps {
		for _, store := range []*warehouse.Store{st, re} {
			got, err := store.Snapshot(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("epoch %d decodes differently from the snapshot appended", id)
			}
			if id == len(snaps)-1 {
				continue // the head is served shared, by design
			}
			twin, err := store.Snapshot(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			for _, other := range []*warehouse.Snapshot{twin, latest} {
				if &got.ConeStart[0] == &other.ConeStart[0] || &got.ConeMembers[0] == &other.ConeMembers[0] {
					t.Errorf("epoch %d: two results share a cone column", id)
				}
			}
			if cap(got.ConeStart) != len(got.ConeStart) || cap(got.ConeMembers) != len(got.ConeMembers) ||
				cap(got.Links) != len(got.Links) || cap(got.ASNs) != len(got.ASNs) {
				t.Errorf("epoch %d pins spare capacity: cone offsets %d/%d, members %d/%d, links %d/%d, ASNs %d/%d", id,
					len(got.ConeStart), cap(got.ConeStart), len(got.ConeMembers), cap(got.ConeMembers),
					len(got.Links), cap(got.Links), len(got.ASNs), cap(got.ASNs))
			}
		}
	}
}

// TestSnapshotBesideAppend runs chain replays while the store grows
// (go test -race): each Snapshot call replays into buffers of its own,
// so readers take no lock an Append holds and see no half-applied epoch.
func TestSnapshotBesideAppend(t *testing.T) {
	snaps, etags := churnedSeries(t, []int{0, 3, 1, 5, 2, 6, 4}, 200)
	st := fill(t, t.TempDir(), snaps[:2], etags[:2], warehouse.Options{CheckpointEvery: 4})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := i % st.Len()
				got, err := st.Snapshot(uint32(id))
				if err != nil {
					t.Errorf("epoch %d beside an append: %v", id, err)
					return
				}
				if !reflect.DeepEqual(got, snaps[id]) {
					t.Errorf("epoch %d decoded differently beside an append", id)
					return
				}
			}
		}(r)
	}
	for i := 2; i < len(snaps); i++ {
		if _, err := st.Append(snaps[i], "epoch", etags[i]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestSegmentImagesPinned holds the on-disk format still: the segment
// content hashes and the chain ETag below were recorded with the
// encoder as it stood before deltas were replayed in place (segment
// version 1; a full, two deltas that move the AS set both ways, a
// checkpoint and one more delta). An encoder that still produces them
// writes stores the older reader opens, and the reader here must open
// them to the ETags they were appended with.
func TestSegmentImagesPinned(t *testing.T) {
	snaps, etags := churnedSeries(t, []int{0, 2, 1, 4, 3}, 200)
	dir := t.TempDir()
	st := fill(t, dir, snaps, etags, warehouse.Options{CheckpointEvery: 3})
	wantKinds := []string{"full", "delta", "delta", "full", "delta"}
	for i, info := range st.Epochs() {
		if info.Kind != wantKinds[i] || info.Hash != pinnedHashes[i] {
			t.Errorf("epoch %d: %s segment with content hash %s, pinned %s %s", i, info.Kind, info.Hash, wantKinds[i], pinnedHashes[i])
		}
	}
	re, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.History().ETag(); got != pinnedChainETag {
		t.Errorf("chain ETag %s, pinned %s", got, pinnedChainETag)
	}
	for i := range snaps {
		dec, err := re.Snapshot(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := apiserver.BuildSnapshot(dec).ETag(); got != etags[i] {
			t.Errorf("epoch %d reopens to ETag %s, appended with %s", i, got, etags[i])
		}
	}
}

var (
	pinnedHashes    = []string{"a7d2021454c76353", "a7a1d1acec3a1520", "e1bb1640f1366526", "e607a6ea9e2f1dab", "da1edcb8e1b917eb"}
	pinnedChainETag = `"wh-a83ef617050b36fb"`
)
