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
	// the run of links (x, m). The same pass counts each AS's
	// providers, customers and peers.
	links := make([][]linkEntry, n)
	roles := make([]roleCounts, n)
	for _, l := range snap.Links {
		step := l.Step.String()
		var roleB, roleA string // role of the neighbor, relative to the queried AS
		switch l.Rel {
		case topology.P2C:
			roleB, roleA = "customer", "provider"
			roles[l.A].customers++
			roles[l.B].providers++
		case topology.C2P:
			roleB, roleA = "provider", "customer"
			roles[l.A].providers++
			roles[l.B].customers++
		case topology.P2P:
			roleB, roleA = "peer", "peer"
			roles[l.A].peers++
			roles[l.B].peers++
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
	// snapshot keeps of it. ~100 B per AS; all of them for an 80k-AS
	// Internet is a few MB — cheap insurance that point lookups never
	// touch the encoder.
	coneASes := snap.ConeSizes()
	summaryJSON := make([][]byte, n)
	pool.Chunks(0, n, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			asn := snap.ASNs[i]
			b, err := json.Marshal(asnSummary{
				ASN:           asn,
				Rank:          rankOf[i],
				ConeASes:      int(coneASes[i]),
				ConePrefixes:  int(snap.ConePrefixes[i]),
				TransitDegree: int(snap.TransitDegree[i]),
				Degree:        int(snap.Degree[i]),
				Providers:     roles[i].providers,
				Customers:     roles[i].customers,
				Peers:         roles[i].peers,
				InClique:      cliqueSet[asn],
			})
			if err != nil { // asnSummary is plain ints/bools; cannot fail
				panic("apiserver: summary marshal: " + err.Error())
			}
			summaryJSON[i] = b
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
	d.etag = d.computeETag()
	d.etagHeader = []string{d.etag}
	d.serializeHot()
	return d
}

// roleCounts is one AS's neighbors by their role relative to it.
type roleCounts struct{ providers, customers, peers int }

// computeETag derives the snapshot's strong validator: FNV-1a over
// every pre-serialized summary in rank order plus the clique and
// corpus dimensions. Any change to ranks, cones, relationships, or the
// corpus changes the tag; two identical snapshots produce identical
// tags regardless of build parallelism.
func (d *Data) computeETag() string {
	h := fnv.New64a()
	var num [8]byte
	for _, p := range d.rankPos {
		h.Write(d.summaryJSON[p])
	}
	for _, m := range d.clique {
		binary.LittleEndian.PutUint32(num[:4], m)
		h.Write(num[:4])
	}
	binary.LittleEndian.PutUint64(num[:], uint64(d.pathCount))
	h.Write(num[:])
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
