package warehouse_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// allocatedBy runs f and returns the bytes it allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestManifestASCountIsOnlyAHint: nothing checksums the manifest's
// "ases", so nothing may be sized by it — the replayer sizes its cone
// lists by what each segment decodes to and does not read it. A
// manifest that claims no ASes, a negative count, 2^32 or 200 000 of
// them — on one epoch or on all — opens to the store the honest
// manifest opens to, every epoch included, and allocates no more than a
// small multiple of what the honest one does (while the number sized
// the replayer's slab, 2^32 panicked in makeslice and 200 000 asked for
// a 5 GB slab).
func TestManifestASCountIsOnlyAHint(t *testing.T) {
	snaps, etags := buildSeries(t, 3, 300, 6)
	src := t.TempDir()
	fill(t, src, snaps, etags, warehouse.Options{})
	var err error

	// openAll opens the store and decodes every epoch, the head through
	// Latest, the others through a chain replay.
	openAll := func(dir string) (st *warehouse.Store, decoded []*warehouse.Snapshot, err error) {
		if st, err = warehouse.Open(dir, warehouse.Options{}); err != nil {
			return nil, nil, err
		}
		for id := 0; id < st.Len(); id++ {
			s, err := st.Snapshot(uint32(id))
			if err != nil {
				return nil, nil, err
			}
			decoded = append(decoded, s)
		}
		return st, decoded, nil
	}
	var honest *warehouse.Store
	var want []*warehouse.Snapshot
	honestBytes := allocatedBy(func() { honest, want, err = openAll(src) })
	if err != nil || len(want) != len(snaps) {
		t.Fatalf("honest manifest: %d epochs, %v", len(want), err)
	}

	for _, claim := range []int{-7, 0, 1 << 32, 200_000} {
		for _, where := range []string{"one epoch", "every epoch"} {
			man := readManifestFile(t, src)
			for i := range man.Epochs {
				if where == "every epoch" || i == 1 {
					man.Epochs[i].ASes = claim
				}
			}
			dir := copyDir(t, src)
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), man.bytes(t), 0o644); err != nil {
				t.Fatal(err)
			}

			var st *warehouse.Store
			var got []*warehouse.Snapshot
			gotBytes := allocatedBy(func() { st, got, err = openAll(dir) })
			if err != nil {
				t.Fatalf("ases=%d on %s: %v", claim, where, err)
			}
			if st.Len() != honest.Len() || st.History().ETag() != honest.History().ETag() {
				t.Errorf("ases=%d on %s: %d epochs under chain ETag %s, the honest manifest opens %d under %s",
					claim, where, st.Len(), st.History().ETag(), honest.Len(), honest.History().ETag())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ases=%d on %s: an epoch decodes differently than under the honest manifest", claim, where)
			}
			if gotBytes > 3*honestBytes {
				t.Errorf("ases=%d on %s: opening and decoding allocates %d KB, %d KB under the honest manifest",
					claim, where, gotBytes/1024, honestBytes/1024)
			}
		}
	}
}

// FuzzManifest opens a store whose segments are honest and whose
// manifest is anything at all. The manifest is the one file of a store
// no checksum covers, so whatever it says is followed only as far as the
// segments bear it out: Open never panics, allocates within a fixed
// budget, and either refuses the manifest or opens a prefix of the
// honest chain — every epoch it lists is the honest epoch at that
// position and decodes to the ETag that epoch was appended with.
func FuzzManifest(f *testing.F) {
	snaps, etags := buildSeries(f, 3, 120, 6)
	dir := f.TempDir()
	honest := fill(f, dir, snaps, etags, warehouse.Options{CheckpointEvery: 2}).Epochs() // full, delta, full
	manifest := filepath.Join(dir, "MANIFEST.json")
	manRaw, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manRaw)
	f.Add(bytes.Replace(manRaw, []byte(`"ases": `), []byte(`"ases": 40000000`), 1))
	f.Add(bytes.Replace(manRaw, []byte(`"checkpointEvery": 2`), []byte(`"checkpointEvery": 1`), 1))
	f.Add(bytes.Replace(manRaw, []byte(`"epoch-000000.seg"`), []byte(`"../epoch-000000.seg"`), 1))
	// Entries that are honest one by one and listed wrongly: the chain
	// without its first two epochs, and with its first epoch twice.
	man := readManifestFile(f, dir)
	for _, epochs := range [][]warehouse.EpochInfo{honest[2:], {honest[0], honest[0], honest[1], honest[2]}} {
		man.Epochs = epochs
		f.Add(man.bytes(f))
	}
	for _, v := range chaos.CorruptVariants(20130401, manRaw, 16) {
		f.Add(v)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every call shares the directory: Open only reads the segments.
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var st *warehouse.Store
		var err error
		budget := uint64(16<<20 + 64*len(data))
		if got := allocatedBy(func() { st, err = warehouse.Open(dir, warehouse.Options{}) }); got > budget {
			t.Fatalf("Open allocated %d KB on a %d-byte manifest, budget %d KB", got/1024, len(data), budget/1024)
		}
		if err != nil {
			return
		}
		listed := st.Epochs()
		if len(listed) > len(honest) {
			t.Fatalf("opened %d epochs, the directory holds %d", len(listed), len(honest))
		}
		for id, info := range listed {
			if info.ID != uint32(id) || info.Hash != honest[id].Hash || info.Kind != honest[id].Kind {
				t.Fatalf("epoch %d opened as %s epoch %d with hash %s, appended as %s with %s", id, info.Kind, info.ID, info.Hash, honest[id].Kind, honest[id].Hash)
			}
			var snap *warehouse.Snapshot
			if got := allocatedBy(func() { snap, err = st.Snapshot(uint32(id)) }); got > budget {
				t.Fatalf("Snapshot(%d) allocated %d KB, budget %d KB", id, got/1024, budget/1024)
			}
			if err != nil {
				t.Fatalf("epoch %d was opened but does not decode: %v", id, err)
			}
			if got := apiserver.BuildSnapshot(snap).ETag(); got != etags[id] {
				t.Fatalf("epoch %d rebuilds ETag %s, appended with %s", id, got, etags[id])
			}
		}
	})
}
