package apiserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"strconv"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// Data is the immutable snapshot the handlers serve. Everything a
// request can ask for is computed once in Build — per-AS summaries
// (including the cone-prefix sums that used to be re-walked per
// request), sorted neighbor lists, the cones as sorted member lists for
// binary-search membership probes — and the hot responses (every
// point-lookup summary, the clique, health, the default first list
// page) are serialized to bytes up front, so the steady-state
// point-lookup path performs zero allocations. A snapshot-derived strong ETag validates every
// response; swapping in a new snapshot changes the ETag and invalidates
// client caches atomically.
type Data struct {
	idx   *asindex.Index
	cones *cone.Rows // the snapshot's cone columns, uncopied

	rankPos []int32 // rank index → interned position (AS Rank order, best first)

	summaryJSON [][]byte // by interned position, compact, newline-free
	links       [][]linkEntry
	clique      []uint32 // never nil

	pathCount int
	numLinks  int

	etag       string   // strong validator, quoted
	etagHeader []string // shared header value slice for alloc-free sets

	healthJSON    []byte
	cliqueJSON    []byte
	firstPageJSON []byte // /asns with no query: limit=listDefaultLimit, offset=0
}

// listDefaultLimit is the page size served when the client asks for
// none; the bare-/asns response at this size is pre-serialized.
const listDefaultLimit = 50

// BuildSnapshot precomputes the API snapshot from a columnar warehouse
// snapshot — freshly converted from an inference result
// (warehouse.FromResult) or decoded from the epoch store; the two are
// indistinguishable here, which is what guarantees that a persisted
// snapshot serves byte-identical responses (same ETag). It is the only
// expensive call — handlers never recompute.
func BuildSnapshot(snap *warehouse.Snapshot) *Data {
	idx := asindex.FromSorted(snap.ASNs)
	cones := cone.NewRows(idx, snap.ConeStart, snap.ConeMembers)
	n := idx.Len()

	rankPos := snap.Rank()
	rankOf := make([]int, n) // interned position → 1-based rank
	for r, p := range rankPos {
		rankOf[p] = r + 1
	}

	// Neighbor lists from the sorted link column: each link feeds both
	// endpoints' rows. The column is sorted by (A, B) with A < B, so
	// each row comes out ascending: AS x receives its smaller neighbors
	// from the links (n, x) as A ascends to x, then its larger ones from
	// the run of links (x, m). A first pass counts each AS's providers,
	// customers and peers, which size its row: the rows are carved out
	// of one array, and an AS without links keeps a nil row.
	roles := make([]roleCounts, n)
	total := 0
	for _, l := range snap.Links {
		switch l.Rel {
		case topology.P2C:
			roles[l.A].customers++
			roles[l.B].providers++
		case topology.C2P:
			roles[l.A].providers++
			roles[l.B].customers++
		case topology.P2P:
			roles[l.A].peers++
			roles[l.B].peers++
		default:
			continue
		}
		total += 2
	}
	links := make([][]linkEntry, n)
	entries := make([]linkEntry, total)
	for i, rc := range roles {
		if k := rc.providers + rc.customers + rc.peers; k > 0 {
			links[i], entries = entries[:0:k], entries[k:]
		}
	}
	for _, l := range snap.Links {
		step := l.Step.String()
		var roleB, roleA string // role of the neighbor, relative to the queried AS
		switch l.Rel {
		case topology.P2C:
			roleB, roleA = "customer", "provider"
		case topology.C2P:
			roleB, roleA = "provider", "customer"
		case topology.P2P:
			roleB, roleA = "peer", "peer"
		default:
			continue
		}
		links[l.A] = append(links[l.A], linkEntry{Neighbor: snap.ASNs[l.B], Relationship: roleB, Step: step})
		links[l.B] = append(links[l.B], linkEntry{Neighbor: snap.ASNs[l.A], Relationship: roleA, Step: step})
	}

	clique := snap.Clique
	if clique == nil {
		clique = []uint32{}
	}
	cliqueSet := make(map[uint32]bool, len(clique))
	for _, m := range clique {
		cliqueSet[m] = true
	}

	// Pre-serialize every summary (compact); the bytes are all the
	// snapshot keeps of it. ~140 B per AS; all of them for an 80k-AS
	// Internet is a few MB — cheap insurance that point lookups never
	// touch the encoder. A chunk of ASes writes its summaries into one
	// buffer, each capped at its end, byte for byte what
	// json.Marshal(asnSummary{…}) writes, and hashes them a segment at
	// a time for the ETag. pool.Chunks cuts at multiples of the chunk
	// size, or runs one (0, n) chunk on one worker: either way each
	// segment lies whole in one chunk, so its digest does not depend on
	// the worker count.
	coneASes := snap.ConeSizes()
	summaryJSON := make([][]byte, n)
	digests := make([]uint64, (n+etagSegment-1)/etagSegment)
	pool.Chunks(0, n, etagSegment, func(lo, hi int) {
		buf := make([]byte, 0, (hi-lo)*summarySizeHint)
		ends := make([]int, hi-lo)
		for i := lo; i < hi; i++ {
			buf = appendSummary(buf, asnSummary{
				ASN:           snap.ASNs[i],
				Rank:          rankOf[i],
				ConeASes:      int(coneASes[i]),
				ConePrefixes:  int(snap.ConePrefixes[i]),
				TransitDegree: int(snap.TransitDegree[i]),
				Degree:        int(snap.Degree[i]),
				Providers:     roles[i].providers,
				Customers:     roles[i].customers,
				Peers:         roles[i].peers,
				InClique:      cliqueSet[snap.ASNs[i]],
			})
			ends[i-lo] = len(buf)
		}
		from := 0
		for i, to := range ends {
			summaryJSON[lo+i] = buf[from:to:to]
			from = to
		}
		for seg := lo; seg < hi; seg += etagSegment {
			from, to := 0, ends[min(seg+etagSegment, hi)-lo-1]
			if seg > lo {
				from = ends[seg-lo-1]
			}
			digests[seg/etagSegment] = fnv1a(buf[from:to])
		}
	})

	d := &Data{
		idx:         idx,
		cones:       cones,
		rankPos:     rankPos,
		summaryJSON: summaryJSON,
		links:       links,
		clique:      clique,
		pathCount:   int(snap.PathCount),
		numLinks:    len(snap.Links),
	}
	d.etag = d.computeETag(snap, digests)
	d.etagHeader = []string{d.etag}
	d.serializeHot()
	return d
}

// roleCounts is one AS's neighbors by their role relative to it.
type roleCounts struct{ providers, customers, peers int }

// summarySizeHint is a summary's length in bytes with a five-digit ASN
// and rank and one- to three-digit counts, rounded up: what a chunk's
// buffer is sized for, so that most chunks never regrow it.
const summarySizeHint = 160

// appendSummary appends s's JSON encoding, the bytes json.Marshal(s)
// returns, to buf.
func appendSummary(buf []byte, s asnSummary) []byte {
	buf = append(buf, `{"asn":`...)
	buf = strconv.AppendUint(buf, uint64(s.ASN), 10)
	buf = append(buf, `,"rank":`...)
	buf = strconv.AppendInt(buf, int64(s.Rank), 10)
	buf = append(buf, `,"coneASes":`...)
	buf = strconv.AppendInt(buf, int64(s.ConeASes), 10)
	buf = append(buf, `,"conePrefixes":`...)
	buf = strconv.AppendInt(buf, int64(s.ConePrefixes), 10)
	buf = append(buf, `,"transitDegree":`...)
	buf = strconv.AppendInt(buf, int64(s.TransitDegree), 10)
	buf = append(buf, `,"degree":`...)
	buf = strconv.AppendInt(buf, int64(s.Degree), 10)
	buf = append(buf, `,"providers":`...)
	buf = strconv.AppendInt(buf, int64(s.Providers), 10)
	buf = append(buf, `,"customers":`...)
	buf = strconv.AppendInt(buf, int64(s.Customers), 10)
	buf = append(buf, `,"peers":`...)
	buf = strconv.AppendInt(buf, int64(s.Peers), 10)
	buf = append(buf, `,"inClique":`...)
	buf = strconv.AppendBool(buf, s.InClique)
	return append(buf, '}')
}

// etagSegment is how many summaries, in position order, one ETag digest
// covers: the unit BuildSnapshot's pool pass hashes them in.
const etagSegment = 256

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// computeETag derives the snapshot's strong validator: FNV-1a over the
// digests of the pre-serialized summaries, one per etagSegment of them
// in position order (each summary holds the AS's rank), the clique, the
// corpus dimensions, the link column — both ends, relationship and the
// step that labeled it, all /links serves — and the cone member lists
// /cone serves. Any change to ranks, cones, relationships, provenance or
// the corpus changes the tag; two identical snapshots produce identical
// tags regardless of build parallelism.
func (d *Data) computeETag(snap *warehouse.Snapshot, digests []uint64) string {
	h := fnv.New64a()
	// The columns are written through one buffer, flushed as it fills.
	buf := make([]byte, 0, 4096)
	put := func(b []byte) []byte {
		if len(b) > cap(b)-16 {
			h.Write(b)
			b = b[:0]
		}
		return b
	}
	for _, dg := range digests {
		buf = binary.LittleEndian.AppendUint64(put(buf), dg)
	}
	for _, m := range d.clique {
		buf = binary.LittleEndian.AppendUint32(put(buf), m)
	}
	buf = binary.LittleEndian.AppendUint64(put(buf), uint64(d.pathCount))
	for _, l := range snap.Links {
		buf = binary.LittleEndian.AppendUint32(put(buf), uint32(l.A))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.B))
		buf = append(buf, byte(l.Rel), byte(l.Step))
	}
	start, members := d.cones.Columns()
	for _, col := range [][]int32{start, members} {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint32(put(buf), uint32(v))
		}
	}
	h.Write(buf)
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// serializeHot pre-renders the responses every cache-cold client asks
// for first: health, the clique, and the default first list page.
func (d *Data) serializeHot() {
	d.healthJSON = mustJSON(map[string]any{
		"status": "ok",
		"ases":   len(d.rankPos),
		"links":  d.numLinks,
		"paths":  d.pathCount,
		"clique": d.clique,
		"etag":   d.etag,
	})
	cl := make([]json.RawMessage, 0, len(d.clique))
	for _, m := range d.clique {
		if p, ok := d.idx.Pos(m); ok {
			cl = append(cl, json.RawMessage(d.summaryJSON[p]))
		}
	}
	d.cliqueJSON = mustJSON(cl)
	d.firstPageJSON = mustJSON(d.page(0, listDefaultLimit))
}

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		panic("apiserver: snapshot serialization: " + err.Error())
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// ETag returns the snapshot's validator (quoted, strong).
func (d *Data) ETag() string { return d.etag }

// listPage is the JSON shape of one ranked page.
type listPage struct {
	Total      int               `json:"total"`
	Data       []json.RawMessage `json:"data"`
	NextCursor string            `json:"nextCursor,omitempty"`
}

// page assembles one ranked page from the pre-serialized summaries.
// offset is clamped to the ranking; the cursor in the response is the
// next offset, omitted on the last page.
func (d *Data) page(offset, limit int) listPage {
	if offset > len(d.rankPos) {
		offset = len(d.rankPos)
	}
	end := offset + limit
	if end > len(d.rankPos) {
		end = len(d.rankPos)
	}
	out := listPage{
		Total: len(d.rankPos),
		Data:  make([]json.RawMessage, 0, end-offset),
	}
	for _, p := range d.rankPos[offset:end] {
		out.Data = append(out.Data, json.RawMessage(d.summaryJSON[p]))
	}
	if end < len(d.rankPos) {
		out.NextCursor = strconv.Itoa(end)
	}
	return out
}

// ConeContains reports whether member is in asn's customer cone — a
// binary search of asn's member list, no allocation.
func (d *Data) ConeContains(asn, member uint32) bool {
	return d.cones.Contains(asn, member)
}
