package apiserver

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// inferSeed runs the pipeline on a small simulated topology.
func inferSeed(t testing.TB, seed int64, ases int) *core.Result {
	t.Helper()
	p := topology.DefaultParams(seed)
	p.ASes = ases
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(seed)
	opts.NumVPs = 10
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	return core.Infer(clean, core.Options{})
}

// rankOrder lists d's ASes in the order it serves /asns.
func rankOrder(d *Data) []uint32 {
	out := make([]uint32, len(d.rankPos))
	for i, p := range d.rankPos {
		out[i] = d.idx.ASN(p)
	}
	return out
}

// TestSnapshotMatchesNaiveComputation pins the pre-serialized summaries
// against the quantities computed the slow way the old per-request
// code did: cone-prefix sums by walking the cone map, neighbor counts
// by scanning the full relationship map.
func TestSnapshotMatchesNaiveComputation(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))

	rels := cone.NewRelations(res.Rels)
	cones := rels.ProviderPeerObservedBits(res.Dataset)
	prefixes := cone.PrefixCounts(res.Dataset)

	checked := 0
	for r, asn := range rankOrder(d) {
		var sum asnSummary
		if err := json.Unmarshal(d.summaryJSON[d.rankPos[r]], &sum); err != nil {
			t.Fatalf("AS%d: %v", asn, err)
		}
		if sum.ASN != asn || sum.Rank != r+1 {
			t.Errorf("AS%d at rank %d serves the summary of AS%d at rank %d", asn, r+1, sum.ASN, sum.Rank)
		}
		members := cones.Members(asn)
		wantPfx := 0
		for _, member := range members {
			wantPfx += prefixes[member]
		}
		if sum.ConePrefixes != wantPfx {
			t.Errorf("AS%d conePrefixes = %d, want %d", asn, sum.ConePrefixes, wantPfx)
		}
		if sum.ConeASes != len(members) {
			t.Errorf("AS%d coneASes = %d, want %d", asn, sum.ConeASes, len(members))
		}
		if want := len(res.Providers(asn)); sum.Providers != want {
			t.Errorf("AS%d providers = %d, want %d", asn, sum.Providers, want)
		}
		if want := len(res.Customers(asn)); sum.Customers != want {
			t.Errorf("AS%d customers = %d, want %d", asn, sum.Customers, want)
		}
		if want := len(res.Peers(asn)); sum.Peers != want {
			t.Errorf("AS%d peers = %d, want %d", asn, sum.Peers, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no ranked ASes checked")
	}
}

// TestSnapshotLinksMatchResult pins the precomputed neighbor lists
// against the result's per-AS scans.
func TestSnapshotLinksMatchResult(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	top := res.Clique[0]
	pos, ok := d.idx.Pos(top)
	if !ok {
		t.Fatalf("clique member %d not interned", top)
	}
	byRel := map[string]int{}
	for i, l := range d.links[pos] {
		byRel[l.Relationship]++
		if i > 0 && d.links[pos][i-1].Neighbor >= l.Neighbor {
			t.Fatalf("links not sorted ascending at %d", i)
		}
		if l.Step == "" || l.Step == "none" {
			t.Errorf("link %d has no provenance: %+v", i, l)
		}
	}
	if byRel["provider"] != len(res.Providers(top)) ||
		byRel["customer"] != len(res.Customers(top)) ||
		byRel["peer"] != len(res.Peers(top)) {
		t.Errorf("link roles %v disagree with result scans (%d/%d/%d)", byRel,
			len(res.Providers(top)), len(res.Customers(top)), len(res.Peers(top)))
	}
}

// TestETagStableAndSnapshotSensitive: two builds of the same result
// carry the same validator; a different corpus carries a different one.
func TestETagStableAndSnapshotSensitive(t *testing.T) {
	res := inferSeed(t, 81, 300)
	a, b := BuildSnapshot(warehouse.FromResult(res)), BuildSnapshot(warehouse.FromResult(res))
	if a.ETag() == "" || a.ETag()[0] != '"' {
		t.Fatalf("ETag %q not a quoted validator", a.ETag())
	}
	if a.ETag() != b.ETag() {
		t.Errorf("same result, different ETags: %s vs %s", a.ETag(), b.ETag())
	}
	other := BuildSnapshot(warehouse.FromResult(inferSeed(t, 82, 310)))
	if other.ETag() == a.ETag() {
		t.Errorf("different snapshots share ETag %s", a.ETag())
	}
}

// TestHandBuiltServesLikeComposed: a snapshot assembled by hand from its
// stored columns — ASNs, degrees, cone prefixes, slab, links, scalars,
// nothing derived — serves the same /api/v1/asns order, bytes and ETag
// as its Compose twin: the rank is computed where it is read.
func TestHandBuiltServesLikeComposed(t *testing.T) {
	composed := warehouse.FromResult(inferSeed(t, 81, 300))
	hand := &warehouse.Snapshot{
		ASNs:          slices.Clone(composed.ASNs),
		TransitDegree: slices.Clone(composed.TransitDegree),
		Degree:        slices.Clone(composed.Degree),
		ConePrefixes:  slices.Clone(composed.ConePrefixes),
		Clique:        slices.Clone(composed.Clique),
		PathCount:     composed.PathCount,
		Links:         slices.Clone(composed.Links),
		ConeWords:     slices.Clone(composed.ConeWords),
	}
	var bodies [2][]byte
	var etags [2]string
	for i, snap := range []*warehouse.Snapshot{composed, hand} {
		d := BuildSnapshot(snap)
		etags[i] = d.ETag()
		srv, _ := e2eServer(t, d, DefaultShedPolicy())
		resp := fetch(t, srv.URL+"/api/v1/asns?limit=1000", nil)
		bodies[i], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("ETag"); got != d.ETag() {
			t.Errorf("snapshot %d served ETag %s, built %s", i, got, d.ETag())
		}
		var page struct {
			Total int          `json:"total"`
			Data  []asnSummary `json:"data"`
		}
		if err := json.Unmarshal(bodies[i], &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != len(snap.ASNs) || len(page.Data) != len(snap.ASNs) || page.Data[0].Rank != 1 {
			t.Fatalf("snapshot %d lists %d of %d ASes (total %d)", i, len(page.Data), len(snap.ASNs), page.Total)
		}
	}
	if etags[0] != etags[1] {
		t.Errorf("hand-built snapshot builds ETag %s, its Compose twin %s", etags[1], etags[0])
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("hand-built snapshot lists /api/v1/asns differently from its Compose twin")
	}
}

// TestNilCliqueSerializesAsEmptyArray: a result with no clique must
// serve "clique":[] (never null) in health and [] from /clique.
func TestNilCliqueSerializesAsEmptyArray(t *testing.T) {
	res := inferSeed(t, 81, 300)
	res.Clique = nil
	d := BuildSnapshot(warehouse.FromResult(res))
	if !bytes.Contains(d.healthJSON, []byte(`"clique":[]`)) {
		t.Errorf("health JSON = %s, want clique:[]", d.healthJSON)
	}
	if string(d.cliqueJSON) != "[]" {
		t.Errorf("clique JSON = %s, want []", d.cliqueJSON)
	}
}

// TestSummaryJSONCompact: pre-serialized summaries are compact (no
// indentation — the old server double-indented everything) and each
// decodes to the AS at its interned position.
func TestSummaryJSONCompact(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	for i, raw := range d.summaryJSON {
		if bytes.ContainsAny(raw, "\n ") {
			t.Fatalf("summary %d not compact: %q", i, raw)
		}
		var sum asnSummary
		if err := json.Unmarshal(raw, &sum); err != nil {
			t.Fatalf("summary %d: %v", i, err)
		}
		if want := d.idx.ASN(int32(i)); sum.ASN != want {
			t.Fatalf("summary %d is AS%d's, want AS%d's", i, sum.ASN, want)
		}
	}
}

// TestConeContains probes the served membership test against a
// freshly computed cone's member list.
func TestConeContains(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	cones := cone.NewRelations(res.Rels).ProviderPeerObservedBits(res.Dataset)
	top := res.Clique[0]
	for _, member := range cones.Members(top) {
		if !d.ConeContains(top, member) {
			t.Errorf("AS%d should contain AS%d", top, member)
		}
	}
	if !d.ConeContains(top, top) {
		t.Error("an AS is always in its own cone")
	}
	if d.ConeContains(top, 4294967294) {
		t.Error("unknown member reported in cone")
	}
}
