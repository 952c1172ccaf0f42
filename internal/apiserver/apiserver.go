// Package apiserver serves inference results over HTTP as JSON — the
// counterpart of the public AS Rank API that the paper's system feeds.
// Endpoints (all GET):
//
//	/api/v1/health                               liveness and dataset summary
//	/api/v1/clique                               the inferred clique
//	/api/v1/asns                                 ranked ASes (cursor or limit/offset paging)
//	/api/v1/asns?ids=a,b,c                       bulk point lookup
//	/api/v1/asns/{asn}                           one AS: rank, cone, degrees
//	/api/v1/asns/{asn}/links                     neighbors with relationship + provenance
//	/api/v1/asns/{asn}/cone                      customer cone membership
//	/api/v1/asns/{asn}/cone/contains/{member}    cone membership probe
//
// The handlers serve an immutable snapshot (see Build): every summary,
// neighbor list, and cone-prefix sum is precomputed, point lookups
// write pre-serialized bytes without allocating, and every data route
// carries a snapshot-derived strong ETag honoring If-None-Match with a
// body-free 304. Responses are compact by default; ?pretty=1 opts into
// indentation. Every route sits behind load-shedding admission control
// (ShedPolicy): past the per-route concurrency limit requests queue
// briefly, then shed with 429/503 + Retry-After, all visible in the
// obs registry.
package apiserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// asnSummary is the JSON shape of one ranked AS. BuildSnapshot writes it
// by hand (appendSummary), field for field in this order;
// TestSummariesMatchEncodingJSON holds those bytes to encoding/json's.
type asnSummary struct {
	ASN           uint32 `json:"asn"`
	Rank          int    `json:"rank"`
	ConeASes      int    `json:"coneASes"`
	ConePrefixes  int    `json:"conePrefixes"`
	TransitDegree int    `json:"transitDegree"`
	Degree        int    `json:"degree"`
	Providers     int    `json:"providers"`
	Customers     int    `json:"customers"`
	Peers         int    `json:"peers"`
	InClique      bool   `json:"inClique"`
}

// linkEntry is the JSON shape of one adjacency.
type linkEntry struct {
	Neighbor     uint32 `json:"neighbor"`
	Relationship string `json:"relationship"` // provider | customer | peer (relative to the queried AS)
	Step         string `json:"inferredBy"`
}

// Config assembles a production handler: metrics registry, optional
// tracer, and the load-shedding policy.
type Config struct {
	// Registry receives per-route HTTP metrics; nil selects the
	// process-global obs.Default().
	Registry *obs.Registry
	// Tracer, when non-nil, records every request as an http.request
	// span.
	Tracer *trace.Tracer
	// Shed is the per-route admission policy; the zero value disables
	// shedding (use DefaultShedPolicy for production limits).
	Shed ShedPolicy
	// Metrics, when non-nil, is the metric handle every built handler
	// records into — inject it to read the SLO objective and in-flight
	// gauge from outside (health checks, drain loops). Nil binds a
	// handle to Registry on each build; the underlying families are the
	// same either way.
	Metrics *Metrics
}

// Live is the serving surface asrankd mounts. The route table and each
// route's one request path (serveRoute: an http.request phase around
// the admission gate and the handler, so shed rejections are timed,
// traced and counted like any other response) are built once, so a
// route's in-flight and queued requests stay counted against the same
// gate across snapshot swaps. A swap stores only the new *Data: every
// data handler loads it once per request, so a request serves one
// snapshot end to end and the next request sees the new epoch.
type Live struct {
	mux  *http.ServeMux
	data atomic.Pointer[Data]
}

// NewLive returns a Live surface. A non-nil store adds the time-travel
// routes (/epochs, /asns/{asn}/history, /diff) over the epoch
// warehouse, behind the same stack but under the warehouse chain ETag
// instead of the snapshot ETag. Until the first Swap every request is
// answered 503.
func NewLive(st *warehouse.Store, cfg Config) *Live {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	m := cfg.Metrics
	if m == nil {
		m = NewMetrics(reg)
	}
	lv := &Live{mux: http.NewServeMux()}
	handle := func(route string, policy ShedPolicy, h http.HandlerFunc) {
		lv.mux.Handle("GET "+route, serveRoute(route, policy, m, cfg.Tracer, h))
	}
	current := func(h func(*Data, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { h(lv.data.Load(), w, r) }
	}
	heavy := cfg.Shed
	light := cfg.Shed.scaled(pointLookupFactor)
	handle("/api/v1/health", light, current((*Data).handleHealth))
	handle("/api/v1/clique", heavy, current((*Data).handleClique))
	handle("/api/v1/asns", heavy, current((*Data).handleList))
	handle("/api/v1/asns/{asn}", light, current((*Data).handleASN))
	handle("/api/v1/asns/{asn}/links", heavy, current((*Data).handleLinks))
	handle("/api/v1/asns/{asn}/cone", heavy, current((*Data).handleCone))
	handle("/api/v1/asns/{asn}/cone/contains/{member}", light, current((*Data).handleConeContains))
	if st != nil {
		tt := &timeTravel{store: st}
		handle("/api/v1/epochs", light, tt.handleEpochs)
		handle("/api/v1/asns/{asn}/history", heavy, tt.handleHistory)
		handle("/api/v1/diff", heavy, tt.handleDiff)
	}
	return lv
}

// Swap atomically replaces the serving snapshot.
func (lv *Live) Swap(d *Data) { lv.data.Store(d) }

func (lv *Live) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if lv.data.Load() == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no snapshot loaded yet")
		return
	}
	lv.mux.ServeHTTP(w, r)
}

// bufPool recycles response staging buffers across requests, so the
// buffered-write path allocates only the JSON encoder state.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// wantPretty reports whether the request opted into indented output.
// Substring probe on the raw query — no URL parsing on the hot path;
// the false-positive surface (a key literally named "pretty=1" inside
// another value) is not worth a parse.
func wantPretty(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "pretty=1")
}

// writeJSON stages v in a pooled buffer before touching the
// ResponseWriter — an encoding failure yields a clean 500, a success a
// correct Content-Length — and counts transport write failures.
// Compact unless pretty.
func writeJSON(w http.ResponseWriter, pretty bool, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if pretty {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		http.Error(w, "internal error: response encoding failed", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		writeFailures.Inc()
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(map[string]string{"error": msg}); err != nil {
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		writeFailures.Inc()
	}
}

// writeHot serves a pre-serialized body with the snapshot ETag. Zero
// allocations on the compact path; ?pretty=1 re-indents through the
// pooled buffer.
//
//asrank:hotpath
func (d *Data) writeHot(w http.ResponseWriter, r *http.Request, body []byte) {
	if wantPretty(r) {
		buf := bufPool.Get().(*bytes.Buffer)
		defer bufPool.Put(buf)
		buf.Reset()
		if err := json.Indent(buf, body, "", "  "); err != nil {
			http.Error(w, "internal error: response encoding failed", http.StatusInternalServerError)
			return
		}
		setTag(w.Header(), d.etagHeader)
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		if _, err := w.Write(buf.Bytes()); err != nil {
			writeFailures.Inc()
		}
		return
	}
	setTag(w.Header(), d.etagHeader)
	if _, err := w.Write(body); err != nil {
		writeFailures.Inc()
	}
}

func (d *Data) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Health is a liveness probe: always a 200 body, never a 304 — but
	// it still serves the pre-rendered snapshot bytes.
	d.writeHot(w, r, d.healthJSON)
}

func (d *Data) handleClique(w http.ResponseWriter, r *http.Request) {
	if notModified(w, r, d.etagHeader) {
		return
	}
	d.writeHot(w, r, d.cliqueJSON)
}

// handleList serves the ranked listing: bulk (?ids=), cursor
// (?cursor=&limit=), or legacy offset (?limit=&offset=) paging. The
// bare request (no query) is the pre-serialized first page.
func (d *Data) handleList(w http.ResponseWriter, r *http.Request) {
	if notModified(w, r, d.etagHeader) {
		return
	}
	if r.URL.RawQuery == "" {
		d.writeHot(w, r, d.firstPageJSON)
		return
	}
	q := r.URL.Query()
	if ids := q.Get("ids"); ids != "" {
		d.handleBulk(w, r, ids)
		return
	}
	limit, err := intParam(q.Get("limit"), listDefaultLimit)
	if err != nil || limit <= 0 || limit > 1000 {
		writeError(w, http.StatusBadRequest, "limit must be in 1..1000")
		return
	}
	offset := 0
	if c := q.Get("cursor"); c != "" {
		offset, err = strconv.Atoi(c)
		if err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "bad cursor; use the nextCursor of a previous page")
			return
		}
	} else {
		offset, err = intParam(q.Get("offset"), 0)
		if err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "offset must be >= 0")
			return
		}
	}
	setTag(w.Header(), d.etagHeader)
	writeJSON(w, wantPretty(r), d.page(offset, limit))
}

// bulkLimit caps one bulk lookup, matching the list page cap.
const bulkLimit = 1000

// bulkResponse answers ?ids=: summaries in request order for known
// ASes, the unknown ids split out (never null).
type bulkResponse struct {
	Data    []json.RawMessage `json:"data"`
	Missing []uint32          `json:"missing"`
}

func (d *Data) handleBulk(w http.ResponseWriter, r *http.Request, ids string) {
	out := bulkResponse{Data: []json.RawMessage{}, Missing: []uint32{}}
	for n, rest := 0, ids; rest != ""; n++ {
		if n >= bulkLimit {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("ids: more than %d values", bulkLimit))
			return
		}
		tok := rest
		if i := strings.IndexByte(rest, ','); i >= 0 {
			tok, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		asn, ok := parseASN(tok)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("ids: bad AS number %q", tok))
			return
		}
		if p, ok := d.idx.Pos(asn); ok {
			out.Data = append(out.Data, json.RawMessage(d.summaryJSON[p]))
		} else {
			out.Missing = append(out.Missing, asn)
		}
	}
	setTag(w.Header(), d.etagHeader)
	writeJSON(w, wantPretty(r), out)
}

// parseASN is an allocation-free uint32 parser for the hot lookup
// paths (strconv's error path allocates).
//
//asrank:hotpath
func parseASN(s string) (uint32, bool) {
	if s == "" || len(s) > 10 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<32-1 {
			return 0, false
		}
	}
	return uint32(v), true
}

// asnParam resolves the {asn} path value to an interned position,
// writing the error response when it is absent or malformed.
func (d *Data) asnParam(w http.ResponseWriter, r *http.Request) (uint32, int32, bool) {
	asn, ok := parseASN(r.PathValue("asn"))
	if !ok {
		writeError(w, http.StatusBadRequest, "bad AS number")
		return 0, 0, false
	}
	pos, ok := d.idx.Pos(asn)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("AS%d not observed", asn))
		return 0, 0, false
	}
	return asn, pos, true
}

// handleASN is the zero-allocation point lookup: parse, probe, write
// pre-serialized bytes. The error paths (asnParam) allocate their
// responses; the success path is pinned by AllocsPerRun.
//
//asrank:hotpath
func (d *Data) handleASN(w http.ResponseWriter, r *http.Request) {
	_, pos, ok := d.asnParam(w, r)
	if !ok {
		return
	}
	if notModified(w, r, d.etagHeader) {
		return
	}
	d.writeHot(w, r, d.summaryJSON[pos])
}

// coneContainsBufPool recycles the small response staging buffers of
// the membership probe, keeping its steady state allocation-free.
var coneContainsBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 96)
	return &b
}}

// handleConeContains answers "is member inside asn's customer cone" as
// two index probes and a binary search of one member list. Unknown
// member ASes are a valid query
// (answer: false), unlike an unknown subject AS (404).
//
//asrank:hotpath
func (d *Data) handleConeContains(w http.ResponseWriter, r *http.Request) {
	asn, _, ok := d.asnParam(w, r)
	if !ok {
		return
	}
	member, ok := parseASN(r.PathValue("member"))
	if !ok {
		writeError(w, http.StatusBadRequest, "bad member AS number")
		return
	}
	if notModified(w, r, d.etagHeader) {
		return
	}
	bp := coneContainsBufPool.Get().(*[]byte)
	defer coneContainsBufPool.Put(bp)
	b := (*bp)[:0]
	b = append(b, `{"asn":`...)
	b = strconv.AppendUint(b, uint64(asn), 10)
	b = append(b, `,"member":`...)
	b = strconv.AppendUint(b, uint64(member), 10)
	b = append(b, `,"contains":`...)
	b = strconv.AppendBool(b, d.ConeContains(asn, member))
	b = append(b, '}')
	*bp = b
	setTag(w.Header(), d.etagHeader)
	if _, err := w.Write(b); err != nil {
		writeFailures.Inc()
	}
}

func (d *Data) handleLinks(w http.ResponseWriter, r *http.Request) {
	_, pos, ok := d.asnParam(w, r)
	if !ok {
		return
	}
	if notModified(w, r, d.etagHeader) {
		return
	}
	out := d.links[pos]
	if out == nil {
		out = []linkEntry{} // an AS with no links serializes as [], never null
	}
	setTag(w.Header(), d.etagHeader)
	writeJSON(w, wantPretty(r), out)
}

// coneResponse is the JSON shape of a cone-membership page.
type coneResponse struct {
	ASN        uint32   `json:"asn"`
	Size       int      `json:"size"`
	Members    []uint32 `json:"members"`
	NextCursor string   `json:"nextCursor,omitempty"`
}

// handleCone lists cone membership, ascending. Large cones can be
// paged with ?limit= and ?cursor= (member offset); the default is the
// whole cone, preserving the v1 shape. The size is the row's length,
// and only the page's positions are mapped to ASNs.
func (d *Data) handleCone(w http.ResponseWriter, r *http.Request) {
	asn, pos, ok := d.asnParam(w, r)
	if !ok {
		return
	}
	if notModified(w, r, d.etagHeader) {
		return
	}
	row := d.cones.Row(pos)
	resp := coneResponse{ASN: asn, Size: len(row)}
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		limit, err := intParam(q.Get("limit"), 0)
		if err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, "limit must be >= 0")
			return
		}
		offset, err := intParam(q.Get("cursor"), 0)
		if err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "bad cursor; use the nextCursor of a previous page")
			return
		}
		offset = min(offset, len(row))
		end := len(row)
		if limit > 0 && limit < end-offset { // offset+limit may overflow
			end = offset + limit
			resp.NextCursor = strconv.Itoa(end)
		}
		row = row[offset:end]
	}
	resp.Members = make([]uint32, len(row))
	for i, m := range row {
		resp.Members[i] = d.idx.ASN(m)
	}
	setTag(w.Header(), d.etagHeader)
	writeJSON(w, wantPretty(r), resp)
}

func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}
