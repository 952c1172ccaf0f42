// Package warehouse is the longitudinal epoch store: an append-only,
// columnar, on-disk warehouse of inference snapshots keyed by the
// interned AS index. Consecutive epochs are delta-encoded (varint
// ASN-column deltas, XOR'd cone slabs, changed-relationship runs) so a
// year of monthly snapshots costs a small multiple of one full epoch;
// every segment is CRC-framed with a content-hash trailer so a torn
// write is detected and Open recovers at the last good epoch. The
// manifest's per-epoch hashes plug into the apiserver ETag scheme, and
// an in-memory History index answers per-AS time-travel queries
// without touching disk.
package warehouse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

const (
	manifestName = "MANIFEST.json"
	// DefaultCheckpointEvery bounds every delta chain: epoch IDs
	// divisible by it are stored full, so Snapshot(id) replays at most
	// CheckpointEvery-1 deltas.
	DefaultCheckpointEvery = 16
)

// Options configures a Store.
type Options struct {
	// CheckpointEvery forces a full (non-delta) segment every N epochs;
	// <= 0 selects DefaultCheckpointEvery.
	CheckpointEvery int
	// Registry and Tracer attach observability; both may be nil.
	Registry *obs.Registry
	Tracer   *trace.Tracer
}

// EpochInfo is one manifest entry: the durable identity of an epoch.
type EpochInfo struct {
	ID    uint32 `json:"id"`
	Label string `json:"label"`
	Kind  string `json:"kind"` // "full" or "delta"
	Base  uint32 `json:"base"` // predecessor epoch a delta applies to (== ID for full)
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	Hash  string `json:"hash"` // fnv64a of the segment image, hex
	ETag  string `json:"etag,omitempty"`
	ASes  int    `json:"ases"`
	Links int    `json:"links"`
	// Note is an opaque caller annotation (e.g. the streaming engine's
	// CommitReport) carried in the manifest but never interpreted by the
	// store: it does not participate in segment hashing, delta encoding,
	// or recovery decisions.
	Note json.RawMessage `json:"note,omitempty"`
}

type manifest struct {
	Version         int         `json:"version"`
	CheckpointEvery int         `json:"checkpointEvery"`
	Epochs          []EpochInfo `json:"epochs"`
}

// Store is an open warehouse directory. Append is serialized; readers
// (Epochs, Snapshot, History) are safe concurrently with appends.
type Store struct {
	dir     string
	opts    Options
	metrics *Metrics
	tracer  *trace.Tracer

	mu sync.RWMutex
	//asrank:guardedby mu
	last *Snapshot // latest epoch, decoded — the delta base for the next Append
	//asrank:guardedby mu
	hist *History // the readable epochs: the store's only list of them
	//asrank:guardedby mu
	m indexMap // scratch: Append's alignment of a delta against last
	//asrank:guardedby mu
	ranks rankScratch // scratch: Append's ranking of the epoch it extends the history by
}

// Open opens (or creates) a warehouse at dir and validates every epoch
// listed in the manifest, in order: segment framing, block CRCs,
// content-hash trailer, and replayability of the delta chain. The
// first epoch that fails validation truncates the store there —
// corruption of the tail is recovered from, not reported as an error —
// so a crash mid-append leaves a store that reopens at the last good
// epoch.
func Open(dir string, opts Options) (*Store, error) {
	ctx, span := opts.Tracer.StartSpan(context.Background(), "warehouse.open")
	defer span.End()
	span.SetAttr("dir", dir)

	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warehouse: create dir %s: %w", dir, err)
	}
	st := &Store{
		dir:     dir,
		opts:    opts,
		metrics: NewMetrics(opts.Registry),
		tracer:  opts.Tracer,
		hist:    newHistory(),
	}

	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if man.CheckpointEvery > 0 {
		// The cadence the segments were written with wins over the
		// caller's preference; mixing them would misplace checkpoints.
		st.opts.CheckpointEvery = man.CheckpointEvery
	}

	dropped := 0
	rp := new(replayer)
	for i, info := range man.Epochs {
		prev := rp.cur
		var err error
		if info.ID != uint32(i) {
			err = fmt.Errorf("warehouse: manifest lists epoch %d at position %d", info.ID, i)
		} else {
			err = st.loadEpoch(info, rp)
		}
		if err != nil {
			// Tail truncation: everything from the first bad epoch on is
			// unreadable (deltas chain), so recovery keeps the good prefix
			// — the replayer still holds the last good epoch untouched.
			dropped = len(man.Epochs) - i
			span.SetAttr("recovery_error", err.Error())
			break
		}
		// prev's metric, link and cone columns are the replayer's spares
		// now, intact until the next epoch is written into them.
		st.hist = st.hist.extend(info, prev, rp.cur, relChanges(prev, rp.cur, diffLinks(prev, rp.cur)), &rp.ranks)
	}
	if rp.cur != nil {
		st.last = rp.snapshot()
	}
	st.metrics.addTruncations(dropped)
	st.metrics.setLive(st.hist.Len(), st.totalBytesLocked())
	span.SetAttrInt("epochs", int64(st.hist.Len()))
	span.SetAttrInt("dropped", int64(dropped))
	_ = ctx
	return st, nil
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &manifest{Version: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("warehouse: read manifest %s: %w", path, err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		// A torn manifest cannot happen under the atomic-rename write
		// protocol, so a parse failure means the file was damaged in
		// place; recovering zero epochs would silently orphan good
		// segments, so surface it.
		return nil, fmt.Errorf("warehouse: manifest %s is corrupt: %w", path, err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("warehouse: manifest %s has unsupported version %d", path, man.Version)
	}
	return &man, nil
}

// loadEpoch reads and validates one epoch's segment and replays it into
// rp, whose working epoch is the predecessor (none yet for the first
// epoch of a chain); on error rp is left at that predecessor.
func (st *Store) loadEpoch(info EpochInfo, rp *replayer) error {
	// The manifest is not checksummed: a file name is followed only if it
	// is the one Append gives this epoch, never out of the directory.
	if want := segmentName(info.ID); info.File != want {
		return fmt.Errorf("warehouse: manifest names segment %q for epoch %d, want %s", info.File, info.ID, want)
	}
	raw, err := readSegment(rp.seg, filepath.Join(st.dir, info.File))
	if err != nil {
		return fmt.Errorf("warehouse: read segment %s: %w", info.File, err)
	}
	rp.seg = raw
	hdr, cols, hash, err := parseSegment(raw)
	if err != nil {
		return fmt.Errorf("warehouse: segment %s: %w", info.File, err)
	}
	if got := fmt.Sprintf("%016x", hash); got != info.Hash {
		return fmt.Errorf("warehouse: segment %s content hash %s does not match manifest %s", info.File, got, info.Hash)
	}
	if hdr.epoch != info.ID {
		return fmt.Errorf("warehouse: segment %s carries epoch %d, manifest says %d", info.File, hdr.epoch, info.ID)
	}
	if got := kindName(hdr.kind); got != info.Kind {
		return fmt.Errorf("warehouse: segment %s is a %s epoch, manifest says %q", info.File, got, info.Kind)
	}
	switch hdr.kind {
	case kindFull:
		return rp.full(cols)
	default:
		if rp.cur == nil {
			return fmt.Errorf("warehouse: segment %s is a delta but epoch %d has no predecessor", info.File, info.ID)
		}
		if hdr.base != info.ID-1 {
			return fmt.Errorf("warehouse: segment %s delta base %d is not the preceding epoch %d", info.File, hdr.base, info.ID-1)
		}
		return rp.delta(cols)
	}
}

// readSegment reads the file at path into buf's array, grown if the
// file does not fit, and returns the image. A segment is never
// rewritten once published, so its size is its length; an image that
// is not the one published fails parseSegment or the hash check.
func readSegment(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	buf = reuse(buf, size)[:size]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func segmentName(id uint32) string { return fmt.Sprintf("epoch-%06d.seg", id) }

// kindName is a segment kind as manifest entries spell it.
func kindName(kind byte) string {
	if kind == kindDelta {
		return "delta"
	}
	return "full"
}

// Append persists snap as the next epoch and publishes it to readers
// atomically: the segment file is written and synced first, the
// manifest — written from the extended history — is atomically
// replaced second, and that history is published last — a crash
// between any two steps leaves a store that reopens at the previous
// epoch. label names the epoch (a corpus path, a date); etag optionally
// records the serving ETag of the snapshot so the API layer can prove
// round-trip identity. snap must not be mutated after Append. A
// snapshot the store could not read back as handed over (Snapshot.check)
// is refused before anything is written: the error leaves the store's
// epochs and its directory as they were.
func (st *Store) Append(snap *Snapshot, label, etag string) (EpochInfo, error) {
	return st.AppendNote(snap, label, etag, nil)
}

// AppendNote is Append with an opaque manifest annotation: note (any
// valid JSON, typically a provenance record such as the streaming
// engine's CommitReport) is stored verbatim on the epoch's manifest
// entry and returned by Epochs/Latest, but never interpreted — epoch
// identity (segment hash, ETag) is unchanged by it.
func (st *Store) AppendNote(snap *Snapshot, label, etag string, note json.RawMessage) (EpochInfo, error) {
	_, ph := st.tracer.StartPhase(context.Background(), "warehouse.append")
	defer ph.End(nil, nil) // error returns and metric-less stores still close the span
	if err := snap.check(); err != nil {
		return EpochInfo{}, err
	}

	st.mu.Lock()
	defer st.mu.Unlock()

	id := uint32(st.hist.Len())
	kind := byte(kindFull)
	base := id
	if st.last != nil && int(id)%st.opts.CheckpointEvery != 0 {
		kind = kindDelta
		base = id - 1
	}

	// One alignment against the predecessor serves both the delta
	// encoder and the history's change list.
	diff := diffLinks(st.last, snap)
	var cols []segColumn
	if kind == kindFull {
		cols = encodeFull(snap)
	} else {
		cols = encodeDelta(st.last, snap, st.m.align(st.last.ASNs, snap.ASNs), diff)
	}
	img, hash := encodeSegment(kind, id, base, cols)

	file := segmentName(id)
	if err := writeFileSync(filepath.Join(st.dir, file), img); err != nil {
		return EpochInfo{}, err
	}

	info := EpochInfo{
		ID: id, Label: label, Kind: kindName(kind), Base: base,
		File: file, Bytes: int64(len(img)), Hash: fmt.Sprintf("%016x", hash),
		ETag: etag, ASes: snap.NumASes(), Links: len(snap.Links),
		Note: note,
	}
	next := st.hist.extend(info, st.last, snap, relChanges(st.last, snap, diff), &st.ranks)
	if err := st.writeManifest(next.epochs); err != nil {
		return EpochInfo{}, err
	}
	st.hist = next
	st.last = snap

	st.metrics.observeAppend(len(img))
	st.metrics.setLive(next.Len(), st.totalBytesLocked())
	ph.Span.SetAttrInt("epoch", int64(id))
	ph.Span.SetAttr("kind", info.Kind)
	ph.Span.SetAttrInt("bytes", int64(len(img)))
	if st.metrics != nil {
		ph.End(st.metrics.appendSeconds, nil)
	}
	return info, nil
}

func (st *Store) writeManifest(epochs []EpochInfo) error {
	man := manifest{Version: 1, CheckpointEvery: st.opts.CheckpointEvery, Epochs: epochs}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("warehouse: marshal manifest: %w", err)
	}
	final := filepath.Join(st.dir, manifestName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("warehouse: publish manifest %s: %w", final, err)
	}
	return nil
}

// writeFileSync writes data and fsyncs before close, so a subsequent
// manifest publish never points at a segment the disk has not accepted.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("warehouse: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("warehouse: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("warehouse: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("warehouse: close %s: %w", path, err)
	}
	return nil
}

// Len returns the number of readable epochs.
func (st *Store) Len() int {
	return st.History().Len()
}

// Epochs returns the manifest entries of all readable epochs, oldest
// first. The slice is a copy.
func (st *Store) Epochs() []EpochInfo {
	return slices.Clone(st.History().epochs)
}

// Latest returns the most recent epoch's decoded snapshot and its
// manifest entry; ok is false for an empty store. The snapshot is
// shared and must not be mutated.
func (st *Store) Latest() (*Snapshot, EpochInfo, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.last == nil {
		return nil, EpochInfo{}, false
	}
	return st.last, st.hist.epochs[st.hist.Len()-1], true
}

// Snapshot materializes epoch id by decoding from the nearest full
// checkpoint at or below id and replaying the delta chain — bounded by
// the checkpoint cadence, never by store length. A replayed result is
// the caller's own — it shares no link or cone column with the store or
// with any other result; the head epoch is the shared value Latest
// returns.
func (st *Store) Snapshot(id uint32) (*Snapshot, error) {
	_, ph := st.tracer.StartPhase(context.Background(), "warehouse.snapshot")
	defer ph.End(nil, nil) // only chain replays reach the histogram below
	ph.Span.SetAttrInt("epoch", int64(id))

	st.mu.RLock()
	epochs, last := st.hist.epochs, st.last
	st.mu.RUnlock()
	if int(id) >= len(epochs) {
		return nil, fmt.Errorf("warehouse: epoch %d out of range [0,%d)", id, len(epochs))
	}
	if int(id) == len(epochs)-1 {
		return last, nil
	}
	// The chain starts where the segments say it does (loadEpoch held
	// each entry's kind to its segment header; epoch 0 is always full),
	// not where the manifest's cadence would put a checkpoint. Decoding
	// runs without the lock: appends never rewrite a published epoch.
	start := id
	for start > 0 && epochs[start].Kind != "full" {
		start--
	}
	chain := epochs[start : id+1]

	rp := new(replayer)
	for _, info := range chain {
		if err := st.loadEpoch(info, rp); err != nil {
			return nil, fmt.Errorf("warehouse: materialize epoch %d: %w", id, err)
		}
	}
	snap := rp.snapshot()
	ph.Span.SetAttrInt("chain", int64(len(chain)))
	if st.metrics != nil {
		ph.End(st.metrics.decodeSeconds, nil)
	}
	return snap, nil
}

// History returns the immutable in-memory time-travel index over all
// readable epochs. The returned value never changes; re-call after
// Append to observe new epochs.
func (st *Store) History() *History {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.hist
}

// Dir returns the warehouse directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) totalBytesLocked() int64 {
	var sum int64
	for _, e := range st.hist.epochs {
		sum += e.Bytes
	}
	return sum
}
