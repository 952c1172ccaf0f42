package apiserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

func testServer(t *testing.T) (*httptest.Server, *core.Result, *topology.Topology) {
	t.Helper()
	p := topology.DefaultParams(81)
	p.ASes = 300
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(81)
	opts.NumVPs = 10
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	lv := NewLive(nil, Config{Shed: DefaultShedPolicy()})
	lv.Swap(BuildSnapshot(warehouse.FromResult(res)))
	srv := httptest.NewServer(lv)
	t.Cleanup(srv.Close)
	return srv, res, topo
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	srv, res, _ := testServer(t)
	var health struct {
		Status string   `json:"status"`
		ASes   int      `json:"ases"`
		Links  int      `json:"links"`
		Clique []uint32 `json:"clique"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/health", &health); code != 200 {
		t.Fatalf("status %d", code)
	}
	if health.Status != "ok" || health.Links != len(res.Rels) || len(health.Clique) != len(res.Clique) {
		t.Errorf("health = %+v", health)
	}
}

func TestListPagination(t *testing.T) {
	srv, _, _ := testServer(t)
	var page struct {
		Total int          `json:"total"`
		Data  []asnSummary `json:"data"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns?limit=5", &page); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(page.Data) != 5 {
		t.Fatalf("got %d rows", len(page.Data))
	}
	// Ranked: rank fields are 1..5 and cone sizes non-increasing.
	for i, row := range page.Data {
		if row.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, row.Rank)
		}
		if i > 0 && row.ConeASes > page.Data[i-1].ConeASes {
			t.Errorf("ranking not sorted by cone at row %d", i)
		}
	}
	// Offset paging continues the ranking.
	var page2 struct {
		Data []asnSummary `json:"data"`
	}
	getJSON(t, srv.URL+"/api/v1/asns?limit=5&offset=5", &page2)
	if len(page2.Data) == 0 || page2.Data[0].Rank != 6 {
		t.Errorf("offset page starts at rank %d", page2.Data[0].Rank)
	}
	// Bad params.
	var e map[string]string
	if code := getJSON(t, srv.URL+"/api/v1/asns?limit=0", &e); code != 400 {
		t.Errorf("limit=0 status %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns?offset=-1", &e); code != 400 {
		t.Errorf("offset=-1 status %d", code)
	}
}

func TestASNDetailAndLinks(t *testing.T) {
	srv, res, _ := testServer(t)
	top := res.Clique[0]
	var sum asnSummary
	if code := getJSON(t, srv.URL+"/api/v1/asns/"+itoa(top), &sum); code != 200 {
		t.Fatalf("status %d", code)
	}
	if sum.ASN != top || !sum.InClique {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Customers == 0 {
		t.Error("clique member should have customers")
	}

	var links []linkEntry
	if code := getJSON(t, srv.URL+"/api/v1/asns/"+itoa(top)+"/links", &links); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(links) != sum.Providers+sum.Customers+sum.Peers {
		t.Errorf("links = %d, summary says %d", len(links), sum.Providers+sum.Customers+sum.Peers)
	}
	for _, l := range links {
		if l.Step == "none" || l.Relationship == "" {
			t.Errorf("bad link entry %+v", l)
		}
	}

	var coneResp struct {
		Size    int      `json:"size"`
		Members []uint32 `json:"members"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/"+itoa(top)+"/cone", &coneResp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if coneResp.Size != sum.ConeASes || len(coneResp.Members) != coneResp.Size {
		t.Errorf("cone size mismatch: %d vs %d", coneResp.Size, sum.ConeASes)
	}
}

// TestConePageLimitPastMaxInt: a limit so large that cursor+limit
// overflows an int pages to the end of the cone, as any limit past the
// end does — a 200 with every member from the cursor on and no
// nextCursor, not a handler panic.
func TestConePageLimitPastMaxInt(t *testing.T) {
	srv, res, _ := testServer(t)
	top := itoa(res.Clique[0])
	var whole, page struct {
		Members    []uint32 `json:"members"`
		NextCursor string   `json:"nextCursor"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/"+top+"/cone", &whole); code != 200 || len(whole.Members) < 2 {
		t.Fatalf("status %d, %d members", code, len(whole.Members))
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/"+top+"/cone?cursor=1&limit=9223372036854775807", &page); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !slices.Equal(page.Members, whole.Members[1:]) || page.NextCursor != "" {
		t.Errorf("page holds %d members with nextCursor %q, want the %d from position 1 and none",
			len(page.Members), page.NextCursor, len(whole.Members)-1)
	}
}

func TestASNErrors(t *testing.T) {
	srv, _, _ := testServer(t)
	var e map[string]string
	if code := getJSON(t, srv.URL+"/api/v1/asns/notanumber", &e); code != 400 {
		t.Errorf("bad ASN status %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/4294967294", &e); code != 404 {
		t.Errorf("unknown ASN status %d", code)
	}
}

func TestCliqueEndpoint(t *testing.T) {
	srv, res, _ := testServer(t)
	var clique []asnSummary
	if code := getJSON(t, srv.URL+"/api/v1/clique", &clique); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(clique) != len(res.Clique) {
		t.Errorf("clique size %d, want %d", len(clique), len(res.Clique))
	}
	for _, m := range clique {
		if !m.InClique {
			t.Errorf("member %d not flagged InClique", m.ASN)
		}
	}
}

func itoa(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// oracleHandleCone is handleCone as it stood before it paged from the
// row: every member mapped to its ASN, then the page sliced out.
func (d *Data) oracleHandleCone(w http.ResponseWriter, r *http.Request) {
	asn, _, ok := d.asnParam(w, r)
	if !ok {
		return
	}
	if notModified(w, r, d.etagHeader) {
		return
	}
	members := d.cones.Members(asn)
	resp := coneResponse{ASN: asn, Size: len(members), Members: members}
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
		if offset > len(members) {
			offset = len(members)
		}
		end := len(members)
		if limit > 0 && limit < end-offset { // offset+limit may overflow
			end = offset + limit
			resp.NextCursor = strconv.Itoa(end)
		}
		resp.Members = members[offset:end]
	}
	if resp.Members == nil {
		resp.Members = []uint32{}
	}
	setTag(w.Header(), d.etagHeader)
	writeJSON(w, wantPretty(r), resp)
}

// TestConePagesFromTheRow holds /asns/{asn}/cone, which maps only the
// page's positions to ASNs, to the handler that mapped the whole cone
// first: for every AS of a snapshot and every page shape — the whole
// cone, empty and one-member pages, cursors inside, at and past the end,
// MaxInt limits, pretty output and refused parameters — the status,
// headers and body bytes are the same.
func TestConePagesFromTheRow(t *testing.T) {
	d := BuildSnapshot(warehouse.FromResult(inferSeed(t, 81, 300)))
	for p, asn := range d.idx.ASNs() {
		size := len(d.cones.Row(int32(p)))
		for _, q := range []string{
			"", "limit=0", "limit=1", "cursor=1", "limit=3&cursor=2", "limit=2&cursor=" + strconv.Itoa(size-1),
			"cursor=" + strconv.Itoa(size), "cursor=" + strconv.Itoa(size+5) + "&limit=2",
			"limit=9223372036854775807", "cursor=1&limit=9223372036854775807", "cursor=9223372036854775807",
			"limit=2&pretty=1", "limit=-1", "cursor=x", "limit=1&cursor=-3",
		} {
			var rec [2]*httptest.ResponseRecorder
			for i, h := range []func(http.ResponseWriter, *http.Request){d.handleCone, d.oracleHandleCone} {
				r := httptest.NewRequest("GET", "/api/v1/asns/"+itoa(asn)+"/cone?"+q, nil)
				if q == "" {
					r.URL.RawQuery = ""
				}
				r.SetPathValue("asn", itoa(asn))
				rec[i] = httptest.NewRecorder()
				h(rec[i], r)
			}
			if rec[0].Code != rec[1].Code || !reflect.DeepEqual(rec[0].Header(), rec[1].Header()) || !bytes.Equal(rec[0].Body.Bytes(), rec[1].Body.Bytes()) {
				t.Fatalf("AS%d ?%s: %d %s, the whole-cone handler %d %s", asn, q, rec[0].Code, rec[0].Body, rec[1].Code, rec[1].Body)
			}
		}
	}
}
