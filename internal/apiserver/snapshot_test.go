package apiserver

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
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

// TestSnapshotMatchesNaiveComputation pins the precomputed summaries
// against the quantities computed the slow way the old per-request
// code did: cone-prefix sums by walking the cone map, neighbor counts
// by scanning the full relationship map.
func TestSnapshotMatchesNaiveComputation(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := Build(res)

	rels := cone.NewRelations(res.Rels)
	cones := rels.ProviderPeerObservedBits(res.Dataset)
	prefixes := cone.PrefixCounts(res.Dataset)

	checked := 0
	for _, asn := range d.rank {
		sum, ok := d.Summary(asn)
		if !ok {
			t.Fatalf("AS%d ranked but has no summary", asn)
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
	d := Build(res)
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
	a, b := Build(res), Build(res)
	if a.ETag() == "" || a.ETag()[0] != '"' {
		t.Fatalf("ETag %q not a quoted validator", a.ETag())
	}
	if a.ETag() != b.ETag() {
		t.Errorf("same result, different ETags: %s vs %s", a.ETag(), b.ETag())
	}
	other := Build(inferSeed(t, 82, 310))
	if other.ETag() == a.ETag() {
		t.Errorf("different snapshots share ETag %s", a.ETag())
	}
}

// TestNilCliqueSerializesAsEmptyArray: a result with no clique must
// serve "clique":[] (never null) in health and [] from /clique.
func TestNilCliqueSerializesAsEmptyArray(t *testing.T) {
	res := inferSeed(t, 81, 300)
	res.Clique = nil
	d := Build(res)
	if !bytes.Contains(d.healthJSON, []byte(`"clique":[]`)) {
		t.Errorf("health JSON = %s, want clique:[]", d.healthJSON)
	}
	if string(d.cliqueJSON) != "[]" {
		t.Errorf("clique JSON = %s, want []", d.cliqueJSON)
	}
}

// TestSummaryJSONCompact: pre-serialized summaries are compact (no
// indentation — the old server double-indented everything) and decode
// back to the summary they were built from.
func TestSummaryJSONCompact(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := Build(res)
	for i, raw := range d.summaryJSON {
		if bytes.ContainsAny(raw, "\n ") {
			t.Fatalf("summary %d not compact: %q", i, raw)
		}
		var sum asnSummary
		if err := json.Unmarshal(raw, &sum); err != nil {
			t.Fatalf("summary %d: %v", i, err)
		}
		if sum != d.summaries[i] {
			t.Fatalf("summary %d round-trip mismatch: %+v vs %+v", i, sum, d.summaries[i])
		}
	}
}

// TestConeContains probes the served membership test against a
// freshly computed cone's member list.
func TestConeContains(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := Build(res)
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
