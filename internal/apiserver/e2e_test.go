package apiserver

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// e2eServer serves a built snapshot through the full production stack
// (trace off, metrics + shedding on) against a fresh registry.
func e2eServer(t *testing.T, d *Data, shed ShedPolicy) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	lv := NewLive(nil, Config{Registry: reg, Shed: shed})
	lv.Swap(d)
	srv := httptest.NewServer(lv)
	t.Cleanup(srv.Close)
	return srv, reg
}

func fetch(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestReadPathAcceptance is the end-to-end gate for the serving
// rebuild: every data route carries the snapshot ETag, revalidation
// returns body-free 304s, the tag changes when the snapshot does, and
// responses are compact by default with ?pretty=1 opt-in.
func TestReadPathAcceptance(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	srv, _ := e2eServer(t, d, DefaultShedPolicy())
	top := itoa(res.Clique[0])

	routes := []string{
		"/api/v1/clique",
		"/api/v1/asns",
		"/api/v1/asns/" + top,
		"/api/v1/asns/" + top + "/links",
		"/api/v1/asns/" + top + "/cone",
		"/api/v1/asns/" + top + "/cone/contains/" + top,
	}
	for _, route := range routes {
		resp := fetch(t, srv.URL+route, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s status = %d", route, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if etag != d.ETag() {
			t.Fatalf("%s ETag = %q, want %q", route, etag, d.ETag())
		}
		body, _ := io.ReadAll(resp.Body)
		if strings.Contains(string(body), "\n  ") {
			t.Errorf("%s body indented without ?pretty=1", route)
		}

		// Revalidation: matching If-None-Match gets a body-free 304.
		cond := fetch(t, srv.URL+route, map[string]string{"If-None-Match": etag})
		if cond.StatusCode != http.StatusNotModified {
			t.Fatalf("%s conditional status = %d, want 304", route, cond.StatusCode)
		}
		condBody, _ := io.ReadAll(cond.Body)
		if len(condBody) != 0 {
			t.Errorf("%s 304 carried a %dB body", route, len(condBody))
		}
		if cond.Header.Get("ETag") != etag {
			t.Errorf("%s 304 lost the ETag", route)
		}

		// A stale validator misses and gets the full 200.
		stale := fetch(t, srv.URL+route, map[string]string{"If-None-Match": `"deadbeef"`})
		if stale.StatusCode != 200 {
			t.Errorf("%s stale-tag status = %d, want 200", route, stale.StatusCode)
		}
	}

	// Health always answers with a body, even conditionally: liveness.
	h := fetch(t, srv.URL+"/api/v1/health", map[string]string{"If-None-Match": d.ETag()})
	if h.StatusCode != 200 {
		t.Errorf("health conditional status = %d, want 200", h.StatusCode)
	}

	// A different snapshot produces a different validator, so clients
	// revalidating against the old tag get fresh bodies.
	d2 := BuildSnapshot(warehouse.FromResult(inferSeed(t, 82, 310)))
	srv2, _ := e2eServer(t, d2, DefaultShedPolicy())
	resp := fetch(t, srv2.URL+"/api/v1/asns", map[string]string{"If-None-Match": d.ETag()})
	if resp.StatusCode != 200 {
		t.Fatalf("cross-snapshot conditional status = %d, want 200 (tags must differ)", resp.StatusCode)
	}

	// ?pretty=1 opts into indentation; Content-Length matches.
	pretty := fetch(t, srv.URL+"/api/v1/asns/"+top+"?pretty=1", nil)
	pbody, _ := io.ReadAll(pretty.Body)
	if !strings.Contains(string(pbody), "\n  ") {
		t.Error("?pretty=1 body not indented")
	}
	var sum asnSummary
	if err := json.Unmarshal(pbody, &sum); err != nil {
		t.Fatalf("pretty body does not parse: %v", err)
	}
	compact := fetch(t, srv.URL+"/api/v1/asns/"+top, nil)
	cbody, _ := io.ReadAll(compact.Body)
	if len(cbody) >= len(pbody) {
		t.Errorf("compact (%dB) not smaller than pretty (%dB)", len(cbody), len(pbody))
	}
}

// TestBulkAndCursorPagination covers the two new listing modes.
func TestBulkAndCursorPagination(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	rank := rankOrder(d)
	srv, _ := e2eServer(t, d, DefaultShedPolicy())

	// Cursor walk: pages chain through nextCursor and cover the
	// ranking exactly once, in rank order.
	var walked []uint32
	cursor := ""
	for hops := 0; ; hops++ {
		if hops > len(rank) {
			t.Fatal("cursor walk does not terminate")
		}
		url := srv.URL + "/api/v1/asns?limit=37"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page struct {
			Total      int          `json:"total"`
			Data       []asnSummary `json:"data"`
			NextCursor string       `json:"nextCursor"`
		}
		resp := fetch(t, url, nil)
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		if page.Total != len(rank) {
			t.Fatalf("total = %d, want %d", page.Total, len(rank))
		}
		for _, s := range page.Data {
			walked = append(walked, s.ASN)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(rank) {
		t.Fatalf("cursor walk visited %d of %d ASes", len(walked), len(rank))
	}
	for i, asn := range walked {
		if asn != rank[i] {
			t.Fatalf("cursor walk out of rank order at %d: %d vs %d", i, asn, rank[i])
		}
	}

	// Bulk: request order preserved, unknown ids split out, never null.
	known1, known2 := itoa(rank[0]), itoa(rank[1])
	resp := fetch(t, srv.URL+"/api/v1/asns?ids="+known1+",4294967294,"+known2, nil)
	var bulk struct {
		Data    []asnSummary `json:"data"`
		Missing []uint32     `json:"missing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bulk); err != nil {
		t.Fatal(err)
	}
	if len(bulk.Data) != 2 || bulk.Data[0].ASN != rank[0] || bulk.Data[1].ASN != rank[1] {
		t.Errorf("bulk data = %+v", bulk.Data)
	}
	if len(bulk.Missing) != 1 || bulk.Missing[0] != 4294967294 {
		t.Errorf("bulk missing = %v", bulk.Missing)
	}
	// Malformed id → 400.
	if code := fetch(t, srv.URL+"/api/v1/asns?ids=1,x", nil).StatusCode; code != 400 {
		t.Errorf("bad ids status = %d, want 400", code)
	}

	// Empty bulk results serialize as [], never null.
	resp = fetch(t, srv.URL+"/api/v1/asns?ids=4294967294", nil)
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `"data":[]`) {
		t.Errorf("empty bulk data not []: %s", raw)
	}
}

// TestConeContainsEndpoint covers the cone membership probe route.
func TestConeContainsEndpoint(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	srv, _ := e2eServer(t, d, DefaultShedPolicy())
	top := res.Clique[0]

	var member uint32
	for _, m := range d.cones.Members(top) {
		if m != top {
			member = m
			break
		}
	}
	if member == 0 {
		t.Skip("clique member with a singleton cone")
	}

	var probe struct {
		ASN      uint32 `json:"asn"`
		Member   uint32 `json:"member"`
		Contains bool   `json:"contains"`
	}
	resp := fetch(t, srv.URL+"/api/v1/asns/"+itoa(top)+"/cone/contains/"+itoa(member), nil)
	if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	if !probe.Contains || probe.ASN != top || probe.Member != member {
		t.Errorf("probe = %+v, want contains=true", probe)
	}

	// An unknown member is a valid query with answer false.
	resp = fetch(t, srv.URL+"/api/v1/asns/"+itoa(top)+"/cone/contains/4294967294", nil)
	if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	if probe.Contains {
		t.Error("unknown member reported in cone")
	}
	// An unknown subject is 404; a malformed member 400.
	if code := fetch(t, srv.URL+"/api/v1/asns/4294967294/cone/contains/1", nil).StatusCode; code != 404 {
		t.Errorf("unknown subject status = %d, want 404", code)
	}
	if code := fetch(t, srv.URL+"/api/v1/asns/"+itoa(top)+"/cone/contains/x", nil).StatusCode; code != 400 {
		t.Errorf("bad member status = %d, want 400", code)
	}
}

// TestLinksNeverNull: an AS whose links row is empty serializes as [].
func TestLinksNeverNull(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	// Every interned AS has at least one link by construction, so force
	// the edge case the normalization guards: a nil row.
	pos := d.rankPos[0]
	saved := d.links[pos]
	d.links[pos] = nil
	defer func() { d.links[pos] = saved }()
	srv, _ := e2eServer(t, d, DefaultShedPolicy())
	resp := fetch(t, srv.URL+"/api/v1/asns/"+itoa(d.idx.ASN(pos))+"/links", nil)
	raw, _ := io.ReadAll(resp.Body)
	if got := strings.TrimSpace(string(raw)); got != "[]" {
		t.Errorf("empty links = %q, want []", got)
	}
}

// slowClientListener shrinks each accepted connection's kernel send
// buffer so a client that stops reading makes the handler block in
// Write — the real mechanism by which slow clients pin server slots.
type slowClientListener struct{ net.Listener }

func (l slowClientListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestShedVisibleEndToEnd drives the full server into overload the way
// production gets there — slow clients that request large pages and
// never read, pinning the route's admission slot and queue — then
// asserts the next client is shed with 429 + Retry-After, the
// rejection is visible in asrank_http_request_duration_seconds (class
// 4xx) and asrank_http_requests_shed_total, and the route recovers once the
// slow clients are gone. Deterministic on any core count: the hold is
// a blocked socket write, not a scheduling race.
func TestShedVisibleEndToEnd(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	shed := ShedPolicy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 30 * time.Second, RetryAfter: 2 * time.Second}
	lv := NewLive(nil, Config{Registry: reg, Shed: shed})
	lv.Swap(d)
	srv := httptest.NewUnstartedServer(lv)
	srv.Listener = slowClientListener{srv.Listener}
	srv.Start()
	t.Cleanup(srv.Close)

	// slowGet asks for an indented full page (far larger than the
	// socket buffers) and never reads the response.
	slowGet := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetReadBuffer(4 << 10)
		}
		req := "GET /api/v1/asns?limit=1000&pretty=1 HTTP/1.1\r\nHost: e2e\r\n\r\n"
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	c1 := slowGet() // blocks in Write, holding the only slot
	c2 := slowGet() // waits in the one-deep queue
	defer c1.Close()
	defer c2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for m.shedQueue.With("/api/v1/asns").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow clients never pinned the admission gate")
		}
		time.Sleep(time.Millisecond)
	}

	// Slot and queue both pinned: a well-behaved client is rejected
	// immediately instead of waiting behind the slow ones.
	resp := fetch(t, srv.URL+"/api/v1/asns?limit=1000", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("429 Retry-After = %q, want 2", got)
	}
	var errBody struct{ Error, Reason string }
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("429 body: %v", err)
	}
	if errBody.Error != "overloaded" || errBody.Reason != "queue_full" {
		t.Errorf("429 body = %+v", errBody)
	}

	// The rejection shows up in the families asrankd exposes.
	if got := servedCount(reg, "/api/v1/asns", "4xx"); got != 1 {
		t.Errorf("served 4xx = %d, want 1", got)
	}
	if got := m.shed.With("/api/v1/asns", "queue_full").Value(); got != 1 {
		t.Errorf("shed queue_full = %d, want 1", got)
	}
	exposed := reg.Expose()
	if !strings.Contains(exposed, "asrank_http_requests_shed_total") {
		t.Error("shed counter missing from exposition")
	}
	if errs := obs.Lint(exposed); len(errs) != 0 {
		t.Fatalf("exposition invalid under load: %v", errs)
	}

	// Hang up the slow clients: their blocked writes fail, the slot
	// frees, and the gate recovers.
	c1.Close()
	c2.Close()
	recovered := false
	for deadline = time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp := fetch(t, srv.URL+"/api/v1/asns?limit=1000", nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == 200 {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("gate never recovered after slow clients disconnected")
	}
	if got := servedCount(reg, "/api/v1/asns", "2xx"); got == 0 {
		t.Error("recovered 200 not counted in the latency histogram")
	}
}

// nullWriter is the minimal ResponseWriter the alloc measurements
// write into: a reusable header map and a byte-count sink.
type nullWriter struct {
	h http.Header
	n int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}
func (w *nullWriter) WriteHeader(int) {}

// TestPointLookupZeroAlloc pins the acceptance criterion: the
// steady-state point lookup allocates nothing — for fresh 200s, for
// 304 revalidations, and for cone membership probes.
func TestPointLookupZeroAlloc(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	top := itoa(res.Clique[0])

	req := httptest.NewRequest("GET", "/api/v1/asns/"+top, nil)
	req.SetPathValue("asn", top)
	w := &nullWriter{h: make(http.Header)}
	d.handleASN(w, req) // warm the header map and buffer pools
	if w.n == 0 {
		t.Fatal("handler wrote nothing")
	}
	if allocs := testing.AllocsPerRun(200, func() { d.handleASN(w, req) }); allocs != 0 {
		t.Errorf("point lookup allocates %.1f/op, want 0", allocs)
	}

	cond := httptest.NewRequest("GET", "/api/v1/asns/"+top, nil)
	cond.SetPathValue("asn", top)
	cond.Header.Set("If-None-Match", d.ETag())
	d.handleASN(w, cond)
	if allocs := testing.AllocsPerRun(200, func() { d.handleASN(w, cond) }); allocs != 0 {
		t.Errorf("304 revalidation allocates %.1f/op, want 0", allocs)
	}

	probe := httptest.NewRequest("GET", "/api/v1/asns/"+top+"/cone/contains/"+top, nil)
	probe.SetPathValue("asn", top)
	probe.SetPathValue("member", top)
	d.handleConeContains(w, probe)
	if allocs := testing.AllocsPerRun(200, func() { d.handleConeContains(w, probe) }); allocs != 0 {
		t.Errorf("cone probe allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkPointLookup measures the snapshot point-lookup handler in
// isolation (the transport-independent cost a tuned server pays).
func BenchmarkPointLookup(b *testing.B) {
	res := inferSeed(b, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	top := itoa(res.Clique[0])
	req := httptest.NewRequest("GET", "/api/v1/asns/"+top, nil)
	req.SetPathValue("asn", top)
	w := &nullWriter{h: make(http.Header)}
	d.handleASN(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.handleASN(w, req)
	}
}

// BenchmarkConeContains measures the bitset membership probe.
func BenchmarkConeContains(b *testing.B) {
	res := inferSeed(b, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	top := itoa(res.Clique[0])
	req := httptest.NewRequest("GET", "/api/v1/asns/"+top+"/cone/contains/"+top, nil)
	req.SetPathValue("asn", top)
	req.SetPathValue("member", top)
	w := &nullWriter{h: make(http.Header)}
	d.handleConeContains(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.handleConeContains(w, req)
	}
}
