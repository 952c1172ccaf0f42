package apiserver

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// timeTravelServer fills a 3-epoch warehouse and serves its head
// snapshot with the time-travel routes mounted.
func timeTravelServer(t *testing.T) (*httptest.Server, *warehouse.Store) {
	t.Helper()
	p := topology.DefaultParams(42)
	p.ASes = 300
	e := topology.DefaultEvolveParams()
	e.Snapshots = 3
	series := topology.GenerateSeries(p, e)

	st, err := warehouse.Open(t.TempDir(), warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var head *Data
	for i, topo := range series {
		opts := bgpsim.DefaultOptions(42 + 1000*int64(i))
		opts.NumVPs = 6
		sim, err := bgpsim.Run(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		snap := warehouse.FromResult(core.Infer(clean, core.Options{}))
		head = BuildSnapshot(snap)
		if _, err := st.Append(snap, "epoch", head.ETag()); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLive(st, Config{})
	lv.Swap(head)
	srv := httptest.NewServer(lv)
	t.Cleanup(srv.Close)
	return srv, st
}

func TestEpochsEndpoint(t *testing.T) {
	srv, st := timeTravelServer(t)
	var page struct {
		ETag   string                `json:"etag"`
		Epochs []warehouse.EpochInfo `json:"epochs"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/epochs", &page); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(page.Epochs) != 3 {
		t.Fatalf("%d epochs, want 3", len(page.Epochs))
	}
	if page.Epochs[0].Kind != "full" || page.Epochs[1].Kind != "delta" {
		t.Errorf("epoch kinds %s, %s; want full, delta", page.Epochs[0].Kind, page.Epochs[1].Kind)
	}
	if page.ETag != st.History().ETag() {
		t.Errorf("body etag %q, history says %q", page.ETag, st.History().ETag())
	}

	// Conditional revalidation against the chain ETag.
	req, _ := http.NewRequest("GET", srv.URL+"/api/v1/epochs", nil)
	req.Header.Set("If-None-Match", page.ETag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 304 {
		t.Errorf("revalidation status %d, want 304", resp.StatusCode)
	}
}

func TestHistoryEndpoint(t *testing.T) {
	srv, st := timeTravelServer(t)
	snap, _, ok := st.Latest()
	if !ok {
		t.Fatal("store is empty")
	}
	asn := snap.ASNs[snap.Rank()[0]]

	var page struct {
		ASN    uint32               `json:"asn"`
		Epochs []warehouse.ASNEpoch `json:"epochs"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/"+itoa(asn)+"/history", &page); code != 200 {
		t.Fatalf("status %d", code)
	}
	if page.ASN != asn || len(page.Epochs) != 3 {
		t.Fatalf("history = asn %d with %d epochs", page.ASN, len(page.Epochs))
	}
	lastEp := page.Epochs[2]
	if !lastEp.Present || lastEp.Rank != 1 {
		t.Errorf("head epoch of the top AS: %+v", lastEp)
	}

	var msg struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/4294967294/history", &msg); code != 404 {
		t.Errorf("unknown AS status %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/asns/zzz/history", &msg); code != 400 {
		t.Errorf("bad AS status %d, want 400", code)
	}
}

func TestDiffEndpoint(t *testing.T) {
	srv, _ := timeTravelServer(t)
	var page struct {
		From    uint32 `json:"from"`
		To      uint32 `json:"to"`
		Changes []struct {
			A   uint32 `json:"a"`
			B   uint32 `json:"b"`
			Old string `json:"old"`
			New string `json:"new"`
		} `json:"changes"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/diff?from=0&to=2", &page); code != 200 {
		t.Fatalf("status %d", code)
	}
	if page.From != 0 || page.To != 2 {
		t.Errorf("echo = %d..%d", page.From, page.To)
	}
	if len(page.Changes) == 0 {
		t.Error("an evolving series produced an empty diff")
	}
	for _, c := range page.Changes[:min(len(page.Changes), 10)] {
		if c.Old == c.New {
			t.Errorf("(%d,%d): no-op change %s->%s", c.A, c.B, c.Old, c.New)
		}
	}

	var msg struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/diff?from=2&to=0", &msg); code != 400 {
		t.Errorf("reversed diff status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/diff?from=0&to=99", &msg); code != 400 {
		t.Errorf("out-of-range diff status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/diff?from=0", &msg); code != 400 {
		t.Errorf("missing param status %d, want 400", code)
	}
}

// TestLiveSwap drives the hot-swap surface asrankd serves through: 503
// while warming, the stored routes after the first swap, and the
// time-travel routes alongside them.
func TestLiveSwap(t *testing.T) {
	_, st := timeTravelServer(t)
	live := NewLive(st, Config{})
	srv := httptest.NewServer(live)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("warming status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("warming response has no Retry-After")
	}

	snap, _, _ := st.Latest()
	live.Swap(BuildSnapshot(snap))
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/health", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("after swap: status %d, health %+v", 200, health)
	}
	var page struct {
		Epochs []warehouse.EpochInfo `json:"epochs"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/epochs", &page); code != 200 || len(page.Epochs) != 3 {
		t.Fatalf("after swap: epochs status/len = %d/%d", code, len(page.Epochs))
	}
}

// TestDecodedRowsAscend: BuildSnapshot fills each AS's neighbour row
// straight from the (A, B)-sorted link column and sorts nothing, so the
// rows of a snapshot decoded from a reopened store — a full epoch and
// the deltas on it, whose columns the decoder refuses out of that
// order — come out strictly ascending, and serve the ETag the epoch was
// appended with.
func TestDecodedRowsAscend(t *testing.T) {
	_, st := timeTravelServer(t)
	re, err := warehouse.Open(st.Dir(), warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range re.Epochs() {
		snap, err := re.Snapshot(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		d := BuildSnapshot(snap)
		if d.ETag() != info.ETag {
			t.Errorf("epoch %d (%s) serves ETag %s, appended with %s", info.ID, info.Kind, d.ETag(), info.ETag)
		}
		for p, row := range d.links {
			for i := 1; i < len(row); i++ {
				if row[i-1].Neighbor >= row[i].Neighbor {
					t.Fatalf("epoch %d (%s): AS %d's row has neighbour %d before %d",
						info.ID, info.Kind, snap.ASNs[p], row[i-1].Neighbor, row[i].Neighbor)
				}
			}
		}
	}
}
