package apiserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
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
	srv := httptest.NewServer(NewServer(Build(res), nil, Config{Shed: DefaultShedPolicy()}))
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
